"""Multi-process client fleet: the ``tcp``/``uds`` transports of
:func:`repro.serve.loadgen.run_load`.

In-process clients share one event loop with the server, so their
capacity numbers never pay the syscall, serialization, or RTT costs a
deployed client pays -- exactly the costs that make *round* complexity
matter in practice.  For the socket transports ``run_load`` keeps the
server in the calling process and this module spawns the clients:
``fleet`` worker processes, each running the same client routine as the
in-process transport (:func:`~repro.serve.loadgen._drive_clients`) over
a real kernel socket for a round-robin share of the sessions.  It only
spawns, synchronizes, and collects; encoding, the report, and every
argument check live in :mod:`repro.serve.loadgen`.

**Determinism extends unchanged.**  Sessions are partitioned across
workers round-robin (the same rule connections use), each session's
operations ride one connection in ``op_index`` order, and the server's
aggregate fingerprint is per-session -- so serial oracle, in-process
clients, and the socket fleet all produce the identical fingerprint,
and the shed-accounting contract (``ok + shed == total``) holds over
the merged per-worker counters.

**Measurement discipline.**  Workers pre-encode every frame and open
every session *before* a start barrier; the measured window opens when
the last worker reaches the barrier and closes when the last worker's
results arrive, so the numbers cover socket traffic, not process spawn
or JSON encoding.  Per-worker summaries are preserved in
``report.workers``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro.serve.loadgen import (
    LoadMix,
    _drive_clients,
    _round_robin,
    mix_from_dict,
    mix_to_dict,
)

__all__ = ["run_workers", "FleetError"]

#: How long the parent waits for workers to finish connecting + opening
#: sessions (the unmeasured phase) and for results after the barrier.
_WORKER_TIMEOUT_S = 120.0


class FleetError(RuntimeError):
    """A worker process failed; carries every worker's failure text."""


def _fleet_worker_main(
    worker_index: int,
    mix_doc: Dict[str, Any],
    endpoint: Tuple[str, Any],
    session_indices: Sequence[int],
    connections: int,
    pipeline: int,
    barrier,
    result_queue,
) -> None:
    """Entry point of one spawned worker process."""
    try:
        result = asyncio.run(
            _drive_clients(
                mix_from_dict(mix_doc),
                endpoint,
                session_indices,
                connections,
                pipeline,
                # Every worker (and the parent's clock) passes the barrier
                # together, so the measured window never includes another
                # worker's connect/open phase.
                rendezvous=barrier.wait,
            )
        )
    except BaseException as exc:  # surfaced in the parent, never swallowed
        barrier.abort()
        result_queue.put((worker_index, "error", f"{type(exc).__name__}: {exc}"))
    else:
        result_queue.put((worker_index, "ok", result))


async def run_workers(
    mix: LoadMix,
    endpoint: Tuple[str, Any],
    fleet: int,
    connections: int,
    pipeline: int,
) -> Tuple[List[Dict[str, Any]], float]:
    """Replay ``mix`` against the server at ``endpoint`` from ``fleet``
    worker processes (at most one per session).

    Returns the workers' client results in worker order and the measured
    wall time, barrier to last result.

    :raises FleetError: if any worker process fails or times out.
    """
    # Spawn (not fork): the parent holds a live event loop and an open
    # listener, neither of which survives a fork cleanly; spawned workers
    # re-import and re-derive everything from the (JSON-round-trippable)
    # mix document, which doubles as proof the schedule is replayable
    # from the document alone.
    ctx = multiprocessing.get_context("spawn")
    groups = _round_robin(range(mix.sessions), fleet)
    barrier = ctx.Barrier(len(groups) + 1)
    result_queue: Any = ctx.Queue()
    processes = []
    loop = asyncio.get_running_loop()
    try:
        for worker_index, group in enumerate(groups):
            process = ctx.Process(
                target=_fleet_worker_main,
                args=(
                    worker_index,
                    mix_to_dict(mix),
                    endpoint,
                    group,
                    connections,
                    pipeline,
                    barrier,
                    result_queue,
                ),
                daemon=True,
            )
            process.start()
            processes.append(process)

        # The parent is the (fleet+1)-th barrier party: passing it marks
        # every worker connected and opened, and starts the clock.
        def _rendezvous() -> None:
            barrier.wait(timeout=_WORKER_TIMEOUT_S)

        try:
            await loop.run_in_executor(None, _rendezvous)
        except threading.BrokenBarrierError:
            raise FleetError(
                "fleet rendezvous failed: "
                + "; ".join(_drain_failures(result_queue))
            ) from None
        started = time.perf_counter()

        results: List[Tuple[int, str, Any]] = []
        for _ in groups:
            try:
                results.append(
                    await loop.run_in_executor(
                        None, result_queue.get, True, _WORKER_TIMEOUT_S
                    )
                )
            except Exception:
                raise FleetError(
                    f"timed out waiting for fleet results "
                    f"({len(results)}/{len(groups)} workers reported)"
                ) from None
        wall_s = time.perf_counter() - started

        failures = [
            f"worker {index}: {detail}"
            for index, status, detail in results
            if status != "ok"
        ]
        if failures:
            raise FleetError("; ".join(failures))
    finally:
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()

    results.sort(key=lambda item: item[0])
    return [payload for _, _, payload in results], wall_s


def _drain_failures(result_queue) -> List[str]:
    """Whatever failure texts workers managed to report before aborting."""
    failures = []
    while True:
        try:
            index, status, detail = result_queue.get_nowait()
        except Exception:
            break
        if status != "ok":
            failures.append(f"worker {index}: {detail}")
    return failures or ["no worker reported a reason"]
