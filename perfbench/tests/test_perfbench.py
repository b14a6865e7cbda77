"""Tests for the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import recorder  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str) -> dict:
    process = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_metric_lists_match_benchmark_json():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(recorder.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_prints_every_metric_with_its_unit(workload, trace):
    result = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--size", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in named}
    for metric in named:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    values = {name: item["value"] for name, item in result["metrics"].items()}
    if trace == "0":
        assert all(value > 0 for value in values.values())
    else:
        layers = sum(values[layer + ".self_s"] for layer in recorder.LAYERS)
        assert layers + values["bench.self_s"] == pytest.approx(
            values["trace.wall_s"], rel=1e-6)
        assert values["trace.overhead"] > 0


def test_tampered_digest_counts_as_failed_operation(tmp_path):
    passes = run.run_child("figures", 7, "tiny", tmp_path / "pass")["passes"]
    pins = {op[0]: op[1] for op in passes[0]["ops"]}
    assert run.check_passes(passes, pins) == (len(pins), 0)
    pins[next(iter(pins))] = "0" * 64
    assert run.check_passes(passes, pins) == (len(pins), 1)


def test_unpinned_passes_must_agree():
    first = {"ops": [["a", "d1", None, 0.1, ""], ["b", "d2", None, 0.1, ""]]}
    again = {"ops": [["a", "d1", None, 0.1, ""], ["b", "dX", None, 0.1, ""]]}
    raised = {"ops": [["a", None, "ValueError: boom", 0.1, ""]]}
    assert run.check_passes([first, first]) == (4, 0)
    assert run.check_passes([first, again]) == (4, 1)
    assert run.check_passes([raised]) == (1, 1)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_fold_subtracts_nested_children():
    clock = FakeClock()
    rec = recorder.Recorder(clock=clock)
    inner = rec.wrap("dram", lambda: clock.advance(3.0))

    def outer_body():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(2.0)

    outer = rec.wrap("sim", outer_body, coarse=True)
    with rec.op("point-0"):
        clock.advance(0.5)
        outer()
        clock.advance(0.25)

    table = rec.tables["point-0"]
    assert table["dram"][:2] == [2, 6.0]
    assert table["sim"][:2] == [1, 3.0]
    assert table["bench"][:2] == [1, 0.75]
    assert rec.wall_s == 9.75
    # Coarse spans keep their parent and the operation's request id.
    op_span, sim_span = rec.spans
    assert (op_span["name"], op_span["parent"]) == ("bench", None)
    assert (sim_span["name"], sim_span["parent"]) == ("sim", 0)
    assert sim_span["request"] == "point-0"
    assert sim_span["end"] - sim_span["start"] == 9.0

    report = {"wall_s": 9.75, "ops": [], "counts": {}, "fleet": {}}
    metrics = recorder.layer_metrics(rec.document(), report, report)
    assert metrics["dram.self_s"] == 6.0
    assert metrics["sim.self_s"] == 3.0
    assert metrics["bench.self_s"] == 0.75
    assert metrics["dram.calls"] == 2


def test_fold_rejects_time_counted_twice():
    doc = {"wall_s": 1.0, "tables": {"p": {"dram": [1, 0.8, 0],
                                           "bench": [1, 0.5, 0]}}}
    report = {"wall_s": 1.0, "ops": [], "counts": {}, "fleet": {}}
    with pytest.raises(ValueError):
        recorder.layer_metrics(doc, report, report)


def test_install_times_calls_and_uninstall_restores():
    from repro.cpu.cache import LastLevelCache
    from repro.workloads import tracegen

    original_access = LastLevelCache.__dict__["access"]
    original_build = tracegen.build_workload
    rec = recorder.Recorder()
    rec.install(["cpu", "workloads"])
    try:
        with rec.op("p"):
            cache = LastLevelCache(64 * 1024, 8)
            cache.access(0x40, is_write=False)
            tracegen.build_workload("STREAM", cores=1, records_per_core=10)
    finally:
        rec.uninstall()
    assert rec.tables["p"]["cpu"][0] == 1
    assert rec.tables["p"]["workloads"][0] == 1
    assert LastLevelCache.__dict__["access"] is original_access
    assert tracegen.build_workload is original_build


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    (copy / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"),
        encoding="utf-8")
    for path in BENCH.glob("*.py"):
        (copy / "perfbench").mkdir(exist_ok=True)
        (copy / "perfbench" / path.name).write_text(
            path.read_text(encoding="utf-8"), encoding="utf-8")
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=120,
    )
    assert process.returncode != 0
    assert process.stdout.strip() == ""
