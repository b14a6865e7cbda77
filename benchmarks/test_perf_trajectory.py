"""Performance trajectory: every pinned benchmark must stay fast and exact.

Runs each pin of ``repro.fastpath.bench.PINS`` in both of its modes,
publishes the fresh report to ``benchmarks/out/BENCH_<pin>.json`` and
gates it against the committed ``benchmarks/BENCH_<pin>.json``:

* single_run — the pinned RAND/attache point, fast path on vs off;
* sweep — the pinned 36-point sensitivity grid through the
  orchestrator, warm pool vs spawn-per-job;
* functional — the pinned metadata-traffic functional pass, vector
  kernels on vs off;
* timing — the pinned RAND/attache point with a deep functional
  warm-up, vector timing plane on vs off.

For every pin, all runs of both modes must produce one digest, equal
to the digest each mode has in the committed baseline; the fast mode
must beat the slow one outright, and the speedup must not fall more
than 25% below the committed ratio.  The gates compare *ratios*,
not wall clocks: absolute times depend on the machine, but dividing one
mode's time by the other's on the same machine cancels that out.  After
a deliberate perf change, re-measure on a quiet machine
(``REPRO_BENCH_PERF_REPEATS=7``) and commit the refreshed baseline.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.fastpath.bench import PINS, run_pin

from conftest import publish


@pytest.mark.parametrize("name", list(PINS))
def test_perf_trajectory(name, report_dir):
    repeats = int(os.environ.get("REPRO_BENCH_PERF_REPEATS", "3"))
    report = run_pin(name, repeats=repeats)
    payload = report.to_dict()
    (report_dir / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    baseline_path = pathlib.Path(__file__).parent / f"BENCH_{name}.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    fast, slow = report.pin.modes
    rows = [("repeats (best-of)", report.repeats)]
    for label, run in ((fast, report.fast), (slow, report.slow)):
        rows += [(f"{label} wall clock (s)", f"{run.wall_s:.3f}"),
                 (f"{label} events/sec", f"{run.events_per_s:.1f}")]
    rows += [
        (f"speedup ({slow}/{fast})", f"{report.speedup:.2f}x"),
        ("baseline speedup", f"{baseline['speedup']:.2f}x"),
        ("bit-identical", report.identical),
        ("digest", report.fast.digest[:16]),
    ]
    publish(report_dir, f"BENCH_{name}", f"pinned {name}: {fast} vs {slow}\n"
            + "\n".join(f"  {label:<30}{value}" for label, value in rows))

    assert report.identical, (
        f"{name}: {fast} is not bit-identical to {slow}: digests "
        f"{report.fast.digest[:16]} vs {report.slow.digest[:16]}"
    )
    for label, run in ((fast, report.fast), (slow, report.slow)):
        pinned = baseline["modes"][label]["digest"]
        assert run.digest == pinned, (
            f"{name}: {label} digest {run.digest[:16]} differs from the "
            f"committed {pinned[:16]} in {baseline_path.name}"
        )
    assert report.speedup > 1.0, (
        f"{name}: {fast} is slower than {slow}: {report.speedup:.2f}x"
    )
    floor = 0.75 * baseline["speedup"]
    assert report.speedup >= floor, (
        f"{name} speedup regressed: measured {report.speedup:.2f}x, "
        f"baseline {baseline['speedup']:.2f}x (gate: >= {floor:.2f}x). "
        "If this follows a deliberate change, re-measure and refresh "
        f"{baseline_path.name}."
    )
