"""One benchmark process: set up a workload and measure its share of a run.

:mod:`perfbench.run` starts this script once per process, passing the
``time.monotonic()`` reading taken just before the spawn as ``--t0`` so
set-up time counts from process start.  The last stdout line is one JSON
object with the results; an oracle violation exits with code 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
VIOLATION_EXIT = 3


def _run(args) -> dict:
    from perfbench.closed import CLOSED_WORKLOADS, closed_part, run_closed
    from perfbench.env import pinned_env
    from perfbench.serve import LIMIT_MS, run_serve, serve_part
    from perfbench.tracing import SpanRecorder

    if args.workload in CLOSED_WORKLOADS:
        recorder = SpanRecorder() if args.traced else None
        result = run_closed(
            args.workload,
            args.seed,
            args.seconds,
            t0=args.t0,
            part=args.part,
            startup=args.startup,
            recorder=recorder,
        )
        payload = {"part": closed_part(result), "errors": result["errors"], "extras": {}}
        if recorder is not None:
            recorder.write_spans(
                os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}.spans.jsonl.gz")
            )
    else:
        result = run_serve(
            args.seed,
            args.seconds,
            t0=args.t0,
            part=args.part,
            startup=args.startup,
            traced=args.traced,
            env=pinned_env(),
            out_dir=OUT_DIR,
        )
        payload = {
            "part": serve_part(result),
            "phases": [phase.summary() for phase in result["phases"]],
            "limit_ms": LIMIT_MS,
            "server_stderr": result["server_stderr"],
            "extras": result["extras"],
        }
    from repro.kernels import backend_name

    payload.update(
        setup_s=result["setup_s"],
        setup_cpu_s=result["setup_cpu_s"],
        setup_wall_s=result["setup_wall_s"],
        digest=result["digest"],
        cost_per_op_s=result["cost_per_op_s"],
        ledgers=result.get("ledgers", []),
        kernel_backend=backend_name(),
    )
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--t0", type=float, default=None)
    args = parser.parse_args()
    if args.t0 is None:
        args.t0 = time.monotonic()
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.stats import startup_reference

    args.startup = startup_reference()
    from perfbench.env import strip_environ

    strip_environ()
    os.makedirs(OUT_DIR, exist_ok=True)
    from perfbench.oracle import OracleViolation

    try:
        payload = _run(args)
    except OracleViolation as exc:
        print(json.dumps({"violation": str(exc)}), flush=True)
        sys.exit(VIOLATION_EXIT)
    print(json.dumps(payload), flush=True)


if __name__ == "__main__":
    main()
