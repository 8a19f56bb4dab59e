"""The closed-loop workloads: ``lib-tree`` and ``faults-recovery``.

One caller issues one library call at a time and waits for it.  Every
call gets fresh inputs and a fresh protocol seed derived from the workload
seed, so no seed repeats inside a run.  Set-up (imports, warm-up) is
counted from process start; the warm-up ops are a fixed seeded set whose
``(bits, messages, answer)`` stream is the workload's digest.

Costs are CPU time of this process (``time.thread_time`` per call,
``time.process_time`` for set-up): on a shared host the wall time of a
call also holds the time the host gave the CPU to someone else.  A call's
CPU time is split into the collector's pauses and the rest; the collector's
work is gated as objects scanned (see
:class:`~perfbench.stats.CollectorMeter`), and the rest is scaled by the
CPU time of a reference loop run right before each measured call (see
:func:`~perfbench.stats.reference_loop`).  Wall times are kept for the
report.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.inputs import derive, multi_party_sets, op_rng, two_party_pair
from perfbench.oracle import OracleViolation, check_multi_party, check_two_party
from perfbench.stats import (
    REFERENCE_LOOP_S,
    CollectorMeter,
    Digest,
    OpLedger,
    median,
    reference_cpu_s,
    scaled_setup_s,
    windowed_percentile,
)

__all__ = ["LibTree", "FaultsRecovery", "CLOSED_WORKLOADS", "OpOutcome"]

UNIVERSE = 1 << 32


@dataclass
class OpOutcome:
    """One finished op: its cost and answer.

    ``verify`` runs the oracle (outside the timed call) and returns
    whether the answer is exact.
    """

    bits: int
    messages: int
    answer: Any
    verify: Callable[[], bool]
    k: int


class LibTree:
    """``compute_intersection`` on fresh pairs: n = 2^32, k = 1024,
    overlap 0.3, default rounds (log* k)."""

    name = "lib-tree"
    k = 1024
    overlap = 0.3
    warmup_ops = 3
    #: Ops per process that the end-to-end metrics cover (see
    #: :func:`run_closed`).
    measured_ops = 80

    def __init__(self, seed: int) -> None:
        self.seed = seed
        import repro

        self._repro = repro

    def op(self, phase: str, index: int) -> Callable[[], OpOutcome]:
        rng = op_rng(self.seed, self.name, phase, index)
        alice, bob = two_party_pair(rng, UNIVERSE, self.k, self.overlap)
        protocol_seed = derive(self.seed, self.name, phase, "protocol", index)
        repro = self._repro

        def call() -> OpOutcome:
            result = repro.compute_intersection(
                alice,
                bob,
                universe_size=UNIVERSE,
                max_set_size=self.k,
                seed=protocol_seed,
            )
            return OpOutcome(
                result.bits,
                result.messages,
                result.intersection,
                lambda: check_two_party(
                    "intersect", result.intersection, frozenset(alice), frozenset(bob)
                ),
                self.k,
            )

        return call


class FaultsRecovery:
    """A fixed cycle of three faulted ops.

    * a coordinator run, m = 17, k = 64;
    * a binary-tree run, m = 16, k = 64;
    * a faulted two-party session op, k = 256, r = 2.

    The m-player runs execute under a crash + bit-flip plan armed per op
    with ``repro.faults.inject``, so they go through
    ``repro.multiparty.recovery``: one seeded player fails (stops) at a
    geometric superstep, the classical single fail-stop fault, which keeps
    the recovery cost per op steady from run to run.  The session carries a bit-flip spec,
    under which the session builds a fresh fault plan per op and runs it
    through ``repro.faults.retry``.  All plan seeds derive from the
    workload seed.
    """

    name = "faults-recovery"
    players = (17, 16)
    k_multi = 64
    k_pair = 256
    overlap_multi = 0.5
    overlap_pair = 0.8
    crash_rate = 0.5
    bitflip_multi = 0.0001
    bitflip_pair = 0.05
    warmup_ops = 3
    measured_ops = 81

    def __init__(self, seed: int) -> None:
        self.seed = seed
        from repro import IntersectionSession
        from repro import faults
        from repro.multiparty import BinaryTreeIntersection, CoordinatorIntersection

        self._faults = faults
        self._protocols = (
            CoordinatorIntersection(UNIVERSE, self.k_multi),
            BinaryTreeIntersection(UNIVERSE, self.k_multi),
        )
        spec_seed = derive(seed, self.name, "session-faults") % (1 << 31)
        self._session = IntersectionSession(
            UNIVERSE,
            self.k_pair,
            rounds=2,
            seed=derive(seed, self.name, "session"),
            faults=f"bitflip@{self.bitflip_pair}:seed={spec_seed}",
        )

    def op(self, phase: str, index: int) -> Callable[[], OpOutcome]:
        rng = op_rng(self.seed, self.name, phase, index)
        slot = index % 3
        if slot == 2:
            return self._pair_op(rng)
        sets = multi_party_sets(
            rng, self.players[slot], UNIVERSE, self.k_multi, self.overlap_multi
        )
        protocol = self._protocols[slot]
        plan_seed = derive(self.seed, self.name, phase, "plan", index)
        protocol_seed = derive(self.seed, self.name, phase, "protocol", index)
        faults = self._faults
        target = f"p{rng.randrange(self.players[slot]):05d}"
        model = faults.Compose(
            faults.PlayerCrash(self.crash_rate, target=target),
            faults.BitFlip(self.bitflip_multi),
        )

        def call() -> OpOutcome:
            with faults.inject(model, seed=plan_seed):
                result = protocol.run(sets, seed=protocol_seed)
            return OpOutcome(
                result.total_bits,
                result.rounds,
                result.intersection,
                lambda: check_multi_party(
                    result.intersection, [frozenset(s) for s in sets]
                )
                and not result.degraded,
                self.k_multi,
            )

        return call

    def _pair_op(self, rng) -> Callable[[], OpOutcome]:
        alice, bob = two_party_pair(rng, UNIVERSE, self.k_pair, self.overlap_pair)
        session = self._session

        def call() -> OpOutcome:
            answer = session.intersect(alice, bob)
            record = session.stats().history[-1]
            return OpOutcome(
                record.bits,
                record.messages,
                answer,
                lambda: check_two_party(
                    "intersect", answer, frozenset(alice), frozenset(bob)
                )
                and not record.degraded,
                self.k_pair,
            )

        return call


CLOSED_WORKLOADS = {LibTree.name: LibTree, FaultsRecovery.name: FaultsRecovery}


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scaled_per_op(ledger: OpLedger, reference_s: float) -> float:
    """Scaled CPU seconds per answered op outside collector pauses; one
    reference run was made before each attempted op."""
    per_reference_run = reference_s / ledger.attempted
    return sum(ledger.cpu_s) / ledger.completed * REFERENCE_LOOP_S / per_reference_run


def _collector(meter: CollectorMeter) -> Dict[str, Any]:
    return {"pause_s": meter.pause_s, "full": meter.full, "scanned": meter.scanned}


def run_closed(
    workload: str,
    seed: int,
    seconds: float,
    *,
    t0: float,
    part: int = 0,
    startup: Optional[Tuple[float, float]] = None,
    recorder=None,
) -> Dict[str, Any]:
    """Set up, warm up, and measure one process's share of a run.

    The loop runs for ``seconds`` and for at least the workload's
    ``measured_ops`` ops.  The end-to-end metrics cover those first ops
    only, and peak RSS and the collector meter are read right after them,
    so every host measures the same work: the hot caches grow with every
    op, and the collector's full passes over them cost more the further a
    run gets (on ``lib-tree``, CPU per op read 50, 56 and 60 ms after 94,
    179 and 330 ops).  Later ops count in the report's wall-clock figures.

    :param t0: ``time.monotonic()`` at process start (set-up starts there).
    :param part: which process of the run this is; each draws other ops.
    :param startup: the process's reference runs at start
        (:func:`~perfbench.stats.startup_reference`), which scale set-up.
    :param recorder: an installed-on-demand
        :class:`~perfbench.tracing.SpanRecorder` for the traced run.
    """
    instance = CLOSED_WORKLOADS[workload](seed)
    digest = Digest()
    for index in range(instance.warmup_ops):
        outcome = instance.op("warm", index)()
        outcome.verify()
        digest.add(outcome.bits, outcome.messages, outcome.answer)
    setup_cpu_s = time.process_time()
    setup_wall_s = time.monotonic() - t0
    result: Dict[str, Any] = {
        "setup_s": scaled_setup_s(setup_cpu_s, startup),
        "setup_cpu_s": setup_cpu_s - (startup[1] if startup else 0.0),
        "setup_wall_s": setup_wall_s,
        "digest": digest.hexdigest(),
    }
    measured, beyond = OpLedger(), OpLedger()
    errors: List[str] = []
    busy_s = 0.0
    #: CPU seconds of the reference loops run beside the measured calls.
    reference_s = 0.0
    peak_rss_mb = None
    collector: Dict[str, Any] = {}
    phase = f"run-{part}"
    # Start every run in the same collector phase.
    gc.collect()
    meter = CollectorMeter()
    meter.install()
    if recorder is not None:
        recorder.install()
    try:
        deadline = time.monotonic() + seconds
        index = 0
        while time.monotonic() < deadline or index < instance.measured_ops:
            if index == instance.measured_ops:
                peak_rss_mb = _peak_rss_mb()
                collector = _collector(meter)
            ledger = measured if index < instance.measured_ops else beyond
            if ledger is measured:
                reference_s += reference_cpu_s()
            call = instance.op(phase, index)
            if recorder is not None:
                recorder.op = index
            started = time.perf_counter()
            cpu_started = time.thread_time()
            paused = meter.pause_s
            try:
                outcome = call()
            except OracleViolation:
                raise
            except Exception:  # a failed op is counted, and the run goes on
                busy_s += time.perf_counter() - started
                ledger.record_failure()
                errors.append(traceback.format_exc(limit=4))
                index += 1
                continue
            cpu = time.thread_time() - cpu_started - (meter.pause_s - paused)
            elapsed = time.perf_counter() - started
            busy_s += elapsed
            ledger.record(
                elapsed,
                bits=outcome.bits,
                messages=outcome.messages,
                k=outcome.k,
                exact=outcome.verify(),
                cpu_s=cpu,
            )
            index += 1
        if recorder is not None:
            recorder.op = None
            result["ledgers"] = [recorder.ledger()]
    finally:
        if recorder is not None:
            recorder.uninstall()
        meter.uninstall()
    result.update(
        ledger=measured,
        collector=collector or _collector(meter),
        beyond=beyond,
        errors=errors[:5],
        busy_s=busy_s,
        reference_s=reference_s,
        cost_per_op_s=_scaled_per_op(measured, reference_s),
        peak_rss_mb=_peak_rss_mb() if peak_rss_mb is None else peak_rss_mb,
    )
    return result


def closed_part(result: Dict[str, Any]) -> Dict[str, Any]:
    """What one measuring process hands to :func:`closed_metrics`, as JSON."""
    return {
        "ledger": asdict(result["ledger"]),
        "beyond": asdict(result["beyond"]),
        "collector": result["collector"],
        "reference_s": result["reference_s"],
        "busy_s": result["busy_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def closed_metrics(parts: List[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics (``setup_s`` excluded) of the measuring
    processes of one run (see :func:`closed_part`): their measured ops,
    pooled."""
    ledger = OpLedger.merged([part["ledger"] for part in parts])
    return {
        "scaled_cpu_ms_per_op": 1000.0
        * _scaled_per_op(ledger, sum(part["reference_s"] for part in parts)),
        "gc_scanned_per_op": sum(part["collector"]["scanned"] for part in parts)
        / ledger.completed,
        "success_rate": 1.0 - ledger.error_rate,
        "bits_per_element": ledger.bits / ledger.elements,
        "messages_per_op": ledger.messages / ledger.completed,
        "peak_rss_mb": median([part["peak_rss_mb"] for part in parts]),
    }


def closed_samples(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sample counts and the figures that are reported, not gated: the
    wall-clock rate and latencies of every op, and the per-op CPU
    percentiles of the measured ops."""
    measured = OpLedger.merged([part["ledger"] for part in parts])
    every = OpLedger.merged([entry for part in parts for entry in (part["ledger"], part["beyond"])])
    return {
        "ops": every.attempted,
        "measured_ops": measured.attempted,
        "inexact": every.inexact,
        "failed": every.failed,
        "wall_ops_s": every.completed / sum(part["busy_s"] for part in parts),
        "wall_p50_ms": 1000.0 * median(every.latencies_s),
        "wall_p99_ms": 1000.0 * windowed_percentile(every.latencies_s, 99.0),
        "cpu_ms_per_op_ex_gc": 1000.0 * sum(measured.cpu_s) / measured.completed,
        "reference_ms": 1000.0
        * sum(part["reference_s"] for part in parts)
        / measured.attempted,
        "cpu_p50_ms_ex_gc": 1000.0 * median(measured.cpu_s),
        "cpu_p99_ms_ex_gc": 1000.0 * windowed_percentile(measured.cpu_s, 99.0),
        "gc_ms_per_op": 1000.0
        * sum(part["collector"]["pause_s"] for part in parts)
        / measured.completed,
        "gc_full_collections": sum(part["collector"]["full"] for part in parts),
    }
