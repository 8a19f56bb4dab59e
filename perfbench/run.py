"""End-to-end benchmark of ``repro``: one command, one workload, one seed.

Usage, from the repository root::

    python3 perfbench/run.py --workload lib-tree --seed 0 --seconds 30 --trace 0

Workloads: ``lib-tree``, ``serve-mixed`` and ``faults-recovery`` (see
``perfbench/README.md``).  With ``--trace 0`` the run is split over three
fresh processes, each setting up and then measuring a third of the time;
``setup_s`` is the median of their set-up times, and the other
end-to-end metrics pool their ops.  Times are CPU time outside collector
pauses, scaled by a reference loop run beside the work; the collector's
work is counted as objects scanned; the wall-clock rates and latencies are
printed in the report line only (see ``perfbench/README.md`` for why).
With ``--trace 1`` it measures half the time untraced and half traced, and
prints the per-layer metrics and the tracing overhead (traced cost per op
over untraced cost per op).

Every answer is checked by the one-sided oracle; the digest of the
warm-up ops must match in every process of the run and, at seed 0, the
pin in ``perfbench/pins.json``.  The last stdout line is the result
object; a violation or digest mismatch exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lib-tree", "serve-mixed", "faults-recovery")
#: Processes a ``--trace 0`` run is split over.  Each sets up once and
#: draws other ops, so a run times set-up three times and pools three
#: processes' worth of distinct ops.
PROCESSES = 3
#: Wall-clock allowance for one worker beyond its measured seconds.
WORKER_SLACK_S = 90.0
DEFAULT_SEED = 0

UNITS = {
    "setup_s": "s",
    "scaled_cpu_ms_per_op": "ms",
    "gc_scanned_per_op": "objects",
    "success_rate": "fraction",
    "bits_per_element": "bits",
    "messages_per_op": "msgs",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A worker failed (crash, timeout, unreadable output)."""


def _preflight() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit("perfbench: no src/repro package beside perfbench/; run from a full checkout")


def _spawn(
    workload: str,
    seed: int,
    seconds: float,
    *,
    part: int = 0,
    traced: bool = False,
    env: Dict[str, str],
) -> Dict[str, Any]:
    command = [
        sys.executable,
        os.path.join(ROOT, "perfbench", "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--part",
        str(part),
    ]
    if traced:
        command.append("--traced")
    command += ["--t0", repr(time.monotonic())]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=seconds + WORKER_SLACK_S,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker timed out after {exc.timeout:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    try:
        payload = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload} worker exited {done.returncode} without a result") from None
    if done.returncode != 0 and "violation" not in payload:
        raise BenchError(f"{workload} worker exited {done.returncode}")
    return payload


def _pin(workload: str) -> Optional[str]:
    with open(os.path.join(ROOT, "perfbench", "pins.json"), encoding="utf-8") as pins:
        return json.load(pins).get(workload)


def _print_result(correct: bool, attempted: int, failed: int, metrics: Dict[str, Any]) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(int(attempted), 1),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _preflight()
    sys.path[:0] = [ROOT]
    from perfbench.closed import closed_metrics, closed_samples
    from perfbench.env import nproc, pinned_env, provenance
    from perfbench.layers import PER_LAYER, layer_metrics
    from perfbench.serve import CONNECTIONS, NAME as SERVE, serve_metrics, serve_samples
    from perfbench.stats import median
    from perfbench.tracing import merge_ledgers

    workload, seed = args.workload, args.seed
    connections = CONNECTIONS if workload == SERVE else 1
    if connections > nproc():
        print(f"perfbench: {workload} needs {connections} CPUs, nproc = {nproc()}", file=sys.stderr)
        return 2
    spawn = dict(env=pinned_env())

    runs: List[Dict[str, Any]] = []
    try:
        if args.trace == 0:
            for part in range(PROCESSES):
                runs.append(
                    _spawn(workload, seed, args.seconds / PROCESSES, part=part, **spawn)
                )
        else:
            half = args.seconds / 2
            runs.append(_spawn(workload, seed, half, **spawn))
            runs.append(_spawn(workload, seed, half, traced=True, **spawn))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        _print_result(False, 1, 1, {})
        return 1

    problems = [run["violation"] for run in runs if "violation" in run]
    digests = sorted({run["digest"] for run in runs if "digest" in run})
    if len(digests) > 1:
        problems.append(f"digest differs between processes of one run: {digests}")
    pinned = _pin(workload) if seed == DEFAULT_SEED else None
    if pinned is not None and digests and digests[0] != pinned:
        problems.append(f"digest {digests[0]} != pinned {pinned} at seed {seed}")
    if not all("part" in run for run in runs):
        print("perfbench: " + "; ".join(problems), file=sys.stderr)
        _print_result(False, 1, 1, {})
        return 1
    measured = runs[-1]
    # Trace 0 pools every process; trace 1 reports the traced one.
    parts = [run["part"] for run in runs] if args.trace == 0 else [measured["part"]]
    samples = (serve_samples if workload == SERVE else closed_samples)(parts)

    unlisted_caches: Dict[str, float] = {}
    if args.trace == 0:
        values = {"setup_s": median([run["setup_s"] for run in runs])}
        values.update((serve_metrics if workload == SERVE else closed_metrics)(parts))
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
    else:
        extras = dict(measured["extras"])
        extras["trace.overhead"] = measured["cost_per_op_s"] / runs[0]["cost_per_op_s"]
        values, unlisted_caches = layer_metrics(merge_ledgers(measured["ledgers"]), extras)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "connections": connections,
        "digest": digests[0] if digests else None,
        "digest_pinned": pinned,
        "setup_samples_s": [run["setup_s"] for run in runs],
        "setup_cpu_samples_s": [run["setup_cpu_s"] for run in runs],
        "setup_wall_samples_s": [run["setup_wall_s"] for run in runs],
        "samples": samples,
        "kernel_backend": measured["kernel_backend"],
        "provenance": provenance(),
        "phases": [run["phases"] for run in runs if "phases" in run],
        "limit_ms": measured.get("limit_ms"),
        "op_errors": [error for run in runs for error in run.get("errors", [])],
        "server_stderr": [line for run in runs for line in run.get("server_stderr", [])],
        "unlisted_caches": unlisted_caches,
        "problems": problems,
    }
    print("report " + json.dumps(report), flush=True)
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    correct = not problems
    _print_result(correct, samples["ops"], samples["failed"], metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
