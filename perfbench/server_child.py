"""Launcher for the ``IntersectionServer`` child of the serve workloads.

Usage (from the repository root; the loader in :mod:`perfbench.serve`
starts it)::

    python3 perfbench/server_child.py --uds PATH --report PATH

While it serves, the child runs one reference loop every
:data:`REFERENCE_EVERY_S`, so that its CPU times can be scaled by the
host's speed over the same stretch of time (see
:func:`~perfbench.stats.reference_loop`).

The child starts a UDS server and prints ``READY <reference_s> <spent_s>``
on stdout once it accepts connections (the readiness handshake), giving
the reference runs it made first thing
(:func:`~perfbench.stats.startup_reference`), which scale its set-up.  It then reads commands,
one per line, on stdin:

* ``trace`` -- install a :class:`~perfbench.tracing.SpanRecorder` around
  the serve dispatch and wire functions (and every library layer);
* ``gc`` -- run a full collection and answer ``GC`` on stdout, so that
  every phase of the load starts in the same collector phase;
* ``stat`` -- answer ``STAT <cpu_s> <gc_pause_s> <gc_scanned>
  <peak_rss_mb> <reference_runs> <reference_s> <spent_s>``: this
  process's CPU seconds so far (``time.process_time``), the part of them
  spent in collector pauses and the objects its full collections scanned
  (a :class:`~perfbench.stats.CollectorMeter` installed at start), its
  peak RSS, and the reference-loop runs made so far, their summed CPU
  seconds per run (:func:`~perfbench.stats.reference_cpu_s`) and the CPU
  seconds they took in all;
* ``stop`` (or end of input) -- fold the spans into a ledger, remove the
  wrappers, write the spans out, stop the server, write the report JSON
  and exit.

The report holds, when traced, the ledger.  Server stderr goes wherever the parent points it.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import sys
import time
from typing import Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Seconds between the reference-loop runs made while serving.  A run
#: costs 2-5 ms of CPU, so they take 2-5% of the child's time.
REFERENCE_EVERY_S = 0.1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def _serve(uds_path: str, report_path: str, startup: Tuple[float, float]) -> None:
    from perfbench.stats import CollectorMeter, reference_cpu_s
    from perfbench.tracing import SpanRecorder
    from repro.serve.server import IntersectionServer, ServeConfig

    meter = CollectorMeter()
    meter.install()

    server = IntersectionServer(ServeConfig(transport="uds", uds_path=uds_path))
    await server.start()
    loop = asyncio.get_running_loop()
    stopping = loop.create_future()
    recorder = None
    buffer = bytearray()
    reference = {"runs": 0, "cpu_s": 0.0, "spent_s": 0.0}

    def run_reference() -> None:
        started = time.process_time()
        reference["cpu_s"] += reference_cpu_s()
        reference["runs"] += 1
        reference["spent_s"] += time.process_time() - started
        timer[0] = loop.call_later(REFERENCE_EVERY_S, run_reference)

    timer = [loop.call_later(REFERENCE_EVERY_S, run_reference)]

    def on_stdin() -> None:
        nonlocal recorder
        chunk = os.read(sys.stdin.fileno(), 4096)
        if not chunk:
            commands = ["stop"]
        else:
            buffer.extend(chunk)
            *lines, rest = bytes(buffer).split(b"\n")
            buffer[:] = rest
            commands = [line.decode().strip() for line in lines]
        for command in commands:
            if command == "trace" and recorder is None:
                recorder = SpanRecorder()
                recorder.install()
            elif command == "gc":
                gc.collect()
                print("GC", flush=True)
            elif command == "stat":
                reading = [time.process_time(), meter.pause_s, meter.scanned, _peak_rss_mb()]
                reading += [reference["runs"], reference["cpu_s"], reference["spent_s"]]
                print("STAT " + " ".join(map(repr, reading)), flush=True)
            elif command == "stop" and not stopping.done():
                stopping.set_result(None)

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    print(f"READY {startup[0]!r} {startup[1]!r}", flush=True)
    try:
        await stopping
    finally:
        loop.remove_reader(sys.stdin.fileno())
        timer[0].cancel()
    report = {}
    if recorder is not None:
        report["ledger"] = recorder.ledger()
        recorder.uninstall()
        recorder.write_spans(report_path.replace(".report.json", ".spans.jsonl.gz"))
    await server.stop()
    with open(report_path, "w", encoding="utf-8") as out:
        json.dump(report, out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--uds", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.stats import startup_reference

    startup = startup_reference()
    asyncio.run(_serve(args.uds, args.report, startup))


if __name__ == "__main__":
    main()
