"""Small numeric helpers: percentiles, per-op accounting, the collector
meter, the reference loop that scales CPU times, and the digest."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "percentile",
    "median",
    "windowed_percentile",
    "OpLedger",
    "CollectorMeter",
    "REFERENCE_LOOP_S",
    "reference_loop",
    "reference_cpu_s",
    "startup_reference",
    "scaled_setup_s",
    "Digest",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: Fewest samples in one window of :func:`windowed_percentile`: a
#: window's p99 has fifty samples beyond it, and at the serve workload's
#: rate a window spans several of the server's full collections.
WINDOW_SAMPLES = 5000


def windowed_percentile(values: Sequence[float], q: float) -> float:
    """The median over consecutive windows of the ``q``-th percentile.

    ``values`` are in arrival order.  They are cut into as many equal
    windows of at least :data:`WINDOW_SAMPLES` as fit (one window when
    there are fewer), so a single stall of the host moves one window's
    tail, not the reported one.
    """
    windows = max(1, len(values) // WINDOW_SAMPLES)
    size = len(values) // windows
    return median(
        [percentile(values[start * size : (start + 1) * size], q) for start in range(windows)]
    )


@dataclass
class OpLedger:
    """Per-op outcomes of one measured phase.

    ``latencies_s`` holds answered ops only (wall time); ``cpu_s`` their
    CPU time outside collector pauses where the caller measures it per op
    (the closed loops);
    ``failed`` counts ops that failed, were shed or timed out, and
    ``inexact`` counts contract-valid answers that are not the exact truth
    (degraded or recovered).
    """

    latencies_s: List[float] = field(default_factory=list)
    light_latencies_s: List[float] = field(default_factory=list)
    cpu_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    inexact: int = 0
    bits: int = 0
    messages: int = 0
    elements: int = 0

    def record(
        self,
        latency_s: float,
        *,
        bits: int,
        messages: int,
        k: int,
        exact: bool,
        light: bool = True,
        cpu_s: Optional[float] = None,
    ) -> None:
        self.attempted += 1
        self.latencies_s.append(latency_s)
        if light:
            self.light_latencies_s.append(latency_s)
        if cpu_s is not None:
            self.cpu_s.append(cpu_s)
        self.bits += bits
        self.messages += messages
        self.elements += k
        if not exact:
            self.inexact += 1

    def record_failure(self) -> None:
        self.attempted += 1
        self.failed += 1

    @classmethod
    def merged(cls, ledgers: Sequence[Dict[str, Any]]) -> "OpLedger":
        """One ledger holding, in order, the ops of ``ledgers`` (each given
        as :func:`dataclasses.asdict` makes it, so that it can cross a
        process boundary as JSON)."""
        total = cls()
        for ledger in ledgers:
            total.latencies_s += ledger["latencies_s"]
            total.light_latencies_s += ledger["light_latencies_s"]
            total.cpu_s += ledger["cpu_s"]
            for name in ("attempted", "failed", "inexact", "bits", "messages", "elements"):
                setattr(total, name, getattr(total, name) + ledger[name])
        return total

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    @property
    def error_rate(self) -> float:
        if not self.attempted:
            return 1.0
        return (self.failed + self.inexact) / self.attempted


class CollectorMeter:
    """The interpreter collector's pauses in this process, via ``gc.callbacks``.

    ``pause_s`` is the CPU time (of the collecting thread) spent in
    collections.  ``scanned`` sums, over full (generation 2) collections,
    the objects in the oldest generation when each starts: the collector's
    work in a unit the host cannot change.  The CPU time of a full pass
    over a large heap is memory-bound, and it swings with what other
    tenants of a shared host do: on ``lib-tree`` the same 27 full
    collections took 3.41 s in one process and 2.07 s in another a
    quarter of an hour later, while the rest of the CPU time moved by 5%.
    Counting the objects (``gc.get_objects``) happens inside the pause.
    """

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.full = 0
        self.scanned = 0
        self._started: Optional[float] = None

    def install(self) -> None:
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.thread_time()
            if info.get("generation") == 2:
                self.full += 1
                self.scanned += len(gc.get_objects(generation=2))
        elif self._started is not None:
            self.pause_s += time.thread_time() - self._started
            self._started = None


#: The CPU seconds one :func:`reference_loop` run is taken to cost: about
#: what it costs on a 2-CPU Xeon container in its fast spells.  Scaled CPU
#: times are ``measured CPU time * REFERENCE_LOOP_S / CPU time of one
#: reference run measured beside it``.
REFERENCE_LOOP_S = 0.002


def reference_loop(steps: int = 10000) -> int:
    """A fixed piece of interpreter work that uses nothing from ``repro``:
    dict updates, tuple building and small sorts.

    The CPU time of the same code swings by more than two to one on a
    shared host, for minutes at a time, without any of it showing as
    stolen time.  The workloads' CPU time outside collector pauses moves
    with this loop's: over 23 ``lib-tree`` processes of 40 calls each, a
    call cost 36-67 ms while it cost 5.8-6.9 runs of this loop at 20,000
    steps (21 of them within 6.3-6.9).
    """
    table: Dict[int, int] = {}
    bucket: List[Tuple[int, int]] = []
    total = 0
    for step in range(steps):
        key = (step * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        bucket.append((key, step))
        if len(bucket) == 32:
            bucket.sort()
            total += bucket[0][0]
            bucket = []
    return total + len(table)


def reference_cpu_s(runs: int = 1) -> float:
    """CPU seconds of this thread per :func:`reference_loop` run, over
    ``runs`` runs, with the collector held off: a young collection due
    just then would otherwise run inside the loop, and a full one would
    swamp it.  The collection runs at the caller's next allocation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        for _ in range(runs):
            reference_loop()
        return (time.thread_time() - started) / runs
    finally:
        if enabled:
            gc.enable()


#: Reference-loop runs at process start and right after set-up.
SETUP_REFERENCE_RUNS = 10


def startup_reference() -> Tuple[float, float]:
    """Reference runs made first thing in a process: ``(CPU seconds per
    run, CPU seconds they took)``, the second to be taken out of set-up."""
    started = time.process_time()
    per_run = reference_cpu_s(SETUP_REFERENCE_RUNS)
    return per_run, time.process_time() - started


def scaled_setup_s(
    cpu_s: float, startup: Optional[Tuple[float, float]] = None
) -> float:
    """Scaled set-up time of a process whose set-up took ``cpu_s`` CPU
    seconds (``time.process_time()`` when set-up ended).

    The scale is the mean of one reference run at process start
    (``startup``, from :func:`startup_reference`) and one measured now;
    with no ``startup``, the run measured now alone.  Set-up is short and
    a single measurement of the host's speed beside it is noisy: over six
    ``lib-tree`` processes the run before set-up and the run after it
    differed by up to 37%.
    """
    after = reference_cpu_s(SETUP_REFERENCE_RUNS)
    before, spent = startup if startup is not None else (after, 0.0)
    return (cpu_s - spent) * REFERENCE_LOOP_S / ((before + after) / 2)


class Digest:
    """SHA-256 over a stream of per-op ``(bits, messages, answer)`` records."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.count = 0

    def add(self, bits: int, messages: int, answer: Any) -> None:
        if isinstance(answer, (set, frozenset)):
            answer = sorted(answer)
        record = json.dumps([bits, messages, answer], separators=(",", ":"))
        self._hash.update(record.encode("utf-8") + b"\n")
        self.count += 1

    def add_text(self, text: str) -> None:
        self._hash.update(text.encode("utf-8") + b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

