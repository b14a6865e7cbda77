"""The repository benchmark: host throughput of the Attaché reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload figures --seed 2018 --seconds 50 --trace 0

Workloads (``workloads.py``): ``figures`` (cold Fig. 12/13/14 points)
and ``sweep`` (144 small jobs through the warm pool, one sweep per
seed).  Each run starts fresh interpreters (``worker.py``) whose
environment has no ``REPRO_*`` variable.

``--trace 0`` measures: five set-up probes, then one interpreter that
repeats whole passes while another fits in ``--seconds`` (at least
one).  It prints the end-to-end metrics:

* ``sim_instr_per_s`` — simulated (timed) instructions / pass wall time;
* ``sweep_jobs_per_s`` — jobs (figure points or sweep jobs) / pass wall
  time;
* ``policy_records_per_s`` — trace records streamed (warm-up included)
  / pass wall time;
* ``setup_s`` — process start until the first operation can begin, the
  median over the probes and the measuring interpreter;
* ``peak_rss_mb`` — peak RSS of the measuring process plus its largest
  child.

A pass's wall time is the sum of its timed regions — one per figure
point, one per sweep (``Orchestrator.run`` including its pool start) —
each taken at its fastest pass (:func:`best_wall`).

``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics (``recorder.py``), writing the trace to
``.perfbench/trace-<workload>-<seed>.json``.

Correctness: every operation's result digest is checked.  At the pinned
seed (``digests.json``) each must match its pin; at any other seed the
digests are printed, and every pass of a run must agree.  An operation
that raised, failed in the orchestrator or mismatched counts as failed.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

import recorder
from workloads import DEFAULT_SEED, SIZES, WORKLOADS, fold_digests

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "digests.json"
SCRATCH = ROOT / ".perfbench"

SETUP_PROBES = 5
#: Per-child limit; a run must finish within 180 s.
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("sim_instr_per_s", "instr/s"),
    ("sweep_jobs_per_s", "jobs/s"),
    ("policy_records_per_s", "records/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def child_env(scratch: pathlib.Path) -> dict:
    """The parent's environment minus ``REPRO_*``, importing this
    checkout's ``src`` and keeping temp files inside the checkout."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(scratch)
    return env


def run_child(workload: str, seed: int, size: str, scratch: pathlib.Path,
              *extra: str) -> dict:
    """Run ``worker.py`` once and return its report plus ``setup_s``."""
    scratch.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed), "--size", size,
               "--scratch", str(scratch / "work"), *extra]
    started = time.monotonic()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(scratch), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {CHILD_TIMEOUT_S}s"
    finally:
        # The pass may have forked workers: end its whole process group.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass failed: {err.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["setup_done"] - started
    return report


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() \
        else {}


def check_passes(passes, pinned_ops=None):
    """``(attempted, failed)`` over every operation of *passes*.

    An operation fails when it raised or has no digest, when its digest
    differs from *pinned_ops* (``{op id: digest}``) or, without pins,
    from the first pass that ran it.
    """
    first = {}
    attempted = failed = 0
    for report in passes:
        for op_id, digest, error, *__ in report["ops"]:
            attempted += 1
            expected = (pinned_ops.get(op_id) if pinned_ops is not None
                        else first.setdefault(op_id, digest))
            if error is not None or digest is None or digest != expected:
                failed += 1
    return attempted, failed


def best_wall(passes) -> float:
    """Sum over timed regions of each region's fastest pass.

    Noise on a shared host only ever adds time, so the per-region
    minimum estimates the undisturbed cost; taking it per region (not
    per pass) filters a burst that slowed one operation of one pass.
    """
    return sum(min(report["regions"][region] for report in passes)
               for region in passes[0]["regions"])


def measure(workload: str, seed: int, size: str, seconds: float,
            scratch: pathlib.Path):
    """Set-up probes, then one interpreter running passes for *seconds*."""
    setups = [
        run_child(workload, seed, size, scratch / f"probe{index}",
                  "--setup-only")["setup_s"]
        for index in range(SETUP_PROBES)
    ]
    report = run_child(workload, seed, size, scratch / "passes",
                       "--seconds", str(seconds))
    passes = report["passes"]
    wall = best_wall(passes)
    first = passes[0]
    values = {
        "sim_instr_per_s": first["instructions"] / wall,
        "sweep_jobs_per_s": len(first["ops"]) / wall,
        "policy_records_per_s": first["records"] / wall,
        "setup_s": statistics.median(setups + [report["setup_s"]]),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }
    return report, {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END}


def trace(workload: str, seed: int, size: str, scratch: pathlib.Path):
    """One untraced and one traced pass, folded into per-layer metrics."""
    untraced = run_child(workload, seed, size, scratch / "untraced")
    path = SCRATCH / f"trace-{workload}-{seed}.json"
    traced = run_child(workload, seed, size, scratch / "traced",
                       "--trace-out", str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    plain, timed = untraced["passes"][0], traced["passes"][0]
    for report in (plain, timed):
        report["wall_s"] = best_wall([report])
    metrics = recorder.layer_metrics(doc, timed, plain)
    traced["passes"] = [plain, timed]
    return traced, {name: {"value": metrics[name], "unit": unit}
                    for name, unit in recorder.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-throughput benchmark of the repro package.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny: a seconds-long smoke shape for tests")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this pass's digests as the pins for "
                             "--seed (use after a deliberate result change)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    scratch = SCRATCH / f"run-{os.getpid()}"
    try:
        if args.trace:
            report, metrics = trace(args.workload, args.seed, args.size,
                                    scratch)
        else:
            report, metrics = measure(args.workload, args.seed, args.size,
                                      args.seconds, scratch)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = report["passes"]
    ops = [(op[0], op[1]) for op in passes[0]["ops"]]
    digest = fold_digests(ops)
    pins = load_pins()
    pin = (pins.get(args.workload, {}).get(str(args.seed))
           if args.size == "full" else None)
    if args.write_pins:
        if check_passes(passes)[1]:
            print("perfbench: not pinning a run with failed operations",
                  file=sys.stderr)
            return 1
        pins.setdefault(args.workload, {})[str(args.seed)] = {
            "digest": digest, "ops": dict(ops)}
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        pin = pins[args.workload][str(args.seed)]
    attempted, failed = check_passes(passes,
                                     pin["ops"] if pin is not None else None)
    flags = report["flags"]
    walls = " ".join(f"{sum(item['regions'].values()):.3f}"
                     for item in passes)
    print(f"perfbench: {args.workload} seed={args.seed} pass walls [{walls}]s "
          f"fastpath={flags['fastpath']} vector={flags['vector']}")
    if pin is None:
        print(f"perfbench: digest {args.workload} seed={args.seed} "
              f"{digest} (no pin for this seed: printed, not checked)")
    else:
        verdict = "matches" if digest == pin["digest"] else "DIFFERS FROM"
        print(f"perfbench: digest {digest} {verdict} the pin")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
