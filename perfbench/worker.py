"""Passes of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script with every ``REPRO_*`` variable stripped
from the environment, so process-global state (the classify and
keystream memos, the workload bank, ``code_fingerprint``'s cache) never
carries over from an earlier run.  It prints one JSON line:
``setup_done`` (``time.monotonic()`` when the first operation could
begin: imports, ``code_fingerprint`` and the specs and scratch
directories are built by then), then every pass with its operations,
their digests and timed regions, its work counts, and the process's
peak RSS.  Passes repeat while another fits in ``--seconds`` (at least
one; each pass starts from empty result caches and a fresh pool).

``--setup-only`` stops after set-up; ``--trace-out PATH`` runs a single
pass under :class:`recorder.Recorder` and writes the trace there.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--scratch", type=pathlib.Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=pathlib.Path)
    args = parser.parse_args(argv)

    import repro
    from repro import fastpath, kernels
    from repro.orchestrator import code_fingerprint

    if SRC.resolve() not in pathlib.Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    code_fingerprint()
    args.scratch.mkdir(parents=True)
    workload = workloads.build(args.workload, args.seed, args.size,
                               args.scratch)
    traced = args.trace_out is not None
    recorder = workloads.NullRecorder()
    if traced:
        import recorder as tracing

        recorder = tracing.Recorder()
        # Sweep jobs run in forked workers: read their fleet spans
        # rather than timing code inside them.
        recorder.install(["orchestrator"] if args.workload == "sweep"
                         else None)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        if args.workload == "sweep":
            result = workload.run(recorder, len(passes), spans=traced)
        else:
            result = workload.run(recorder, len(passes))
        passes.append({
            "regions": result.regions,
            "instructions": result.instructions,
            "records": result.records,
            "ops": [op.to_list() for op in result.ops],
            "counts": result.counts,
            "fleet": result.fleet,
        })
        now = time.monotonic()
        if traced or now - start + (now - began) > args.seconds:
            break
    if traced:
        recorder.uninstall()
        args.trace_out.write_text(json.dumps(recorder.document(
            workload=args.workload, seed=args.seed, fleet=result.fleet)),
            encoding="utf-8")
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "setup_done": setup_done,
        "flags": {"fastpath": fastpath.enabled(),
                  "vector": kernels.enabled()},
        "passes": passes,
        "peak_rss_kb": peak_kb,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
