"""Crash-tolerant multiparty execution: re-poll, re-parent, or degrade.

The Section 4 protocols are built from pairwise sub-protocols over a
*fixed* player list, so one fail-stop crash mid-run kills the whole
computation: the coordinator blocks forever on the dead member's reply
(:class:`~repro.comm.errors.ProtocolDeadlock`), or a later phase mails the
corpse (:class:`~repro.comm.errors.MessageToFinishedPlayer`).

:func:`run_with_recovery` turns those deaths into recovery.  It is the
m-player adapter of the one verify -> confirm -> degrade loop,
:func:`repro.faults.retry.run_attempts`, which owns the attempt iteration,
the failure classifier, the suspect-confirmation rule and the
``recovery.attempt`` events.  The adapter supplies one BSP attempt and
builds the :class:`MultipartyRobustOutcome`:

* **detection** -- every attempt runs with a caller-visible
  :class:`~repro.multiparty.network.RunningTotals`, so when the scheduler
  dies (or finishes with casualties) the adapter knows exactly who crashed
  and what the attempt cost;
* **re-poll / re-parent** -- the next attempt re-runs the protocol over
  the *survivor* roster.  Because both protocols derive their topology
  from ``ctx.players``, shrinking the list does the reassignment for free:
  the coordinator re-polls the crashed member's siblings (the group
  re-forms without it) and the binary tree re-parents a dead subtree onto
  its nearest live neighbour (the pairing ``(0,1), (2,3), ...`` re-forms
  over the survivors);
* **replayable seeds** -- attempt 0 uses the session seed itself (a
  crash-free wrapped run is bit-identical to the unwrapped one) and
  recovery attempt ``i`` uses :func:`repro.perf.executor.derive_seed`
  ``(seed, i)``, so the whole session is a pure function of ``(seed,
  fault plan)`` -- pinned by ``tests/test_multiparty_recovery.py``;
* **honest charging** -- bits/rounds of *every* attempt (including the
  aborted ones) accumulate into the outcome, with the re-run share split
  out as ``recovery_bits`` / ``recovery_rounds`` and attributed through
  the ``recovery.attempt`` / ``recovery.outcome`` trace events;
* **typed degradation** -- an exhausted budget (or total extinction)
  returns the m-player generalization of the two-party contract: the
  root-most survivor outputs its own input, which is certifiably a
  superset of the full intersection from within that player's knowledge.
  Nothing raises on channel damage; a failure no fault caused is a bug
  and re-raises.

The one-sided invariant this preserves (the property suite's contract):
the returned set is always a **superset of the true m-way intersection**
-- exact when nobody crashed, the survivors' exact intersection after
recovery (still a superset of the full one), a single survivor's input
under degradation.  Never a strict subset, never silent wrongness.

One rule keeps the semantics crisp: an attempt touched by *any* crash is
discarded even if it happens to complete (a bystander dying after its
contribution was merged would otherwise leave the result depending on
crash timing).  A recovered result is therefore always the survivors'
intersection -- the differential-oracle tests compare it against a
crash-free run over the survivors' inputs and require equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.faults.retry import AttemptResult, run_attempts
from repro.faults.state import STATE as _FAULTS
from repro.multiparty.network import (
    MultipartyOutcome,
    RunningTotals,
    run_message_passing,
)
from repro.obs.state import STATE as _OBS
from repro.perf.executor import derive_seed
from repro.protocols.base import validate_set

__all__ = [
    "RecoveryPolicy",
    "MultipartyRobustOutcome",
    "recovery_attempt_seed",
    "recovery_fingerprint",
    "run_with_recovery",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounded recovery: how many BSP attempts before degrading.

    :param max_attempts: total attempts (>= 1).  Attempt 0 is the normal
        run; each later attempt re-runs over the then-current survivors.
        The default of 8 rides the churn model's bounded horizon: every
        fated crash lands within :attr:`~repro.faults.models.Churn.horizon`
        rounds of first sighting, and each failed attempt retires at
        least one distinct fate round, so 8 attempts carry m = 64 through
        churn rates up to ~0.3 (measured in EXPERIMENTS.md).
    """

    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )


@dataclass
class MultipartyRobustOutcome:
    """Result of one recovery-wrapped multiparty session.

    :param intersection: the output set.  ``status == "exact"`` means the
        exact m-way intersection (up to the protocol's own fingerprint
        error); ``"recovered"`` the survivors' exact intersection (a
        certified superset of the full one); ``"degraded"`` a single
        player's own input (certified superset, ``degraded_mode`` says
        which flavour).
    :param survivors: players alive at the end, canonical order.
    :param crashed: players the fault plan killed, in crash order.
    :param attempts: BSP attempts consumed (including the accepted one).
    :param total_bits: exact across-attempt communication, failed attempts
        included.
    :param total_rounds: across-attempt message-bearing supersteps.
    :param recovery_bits: the share of ``total_bits`` spent by recovery
        re-runs (attempts after the first).
    :param recovery_rounds: same split for rounds.
    :param final_outcome: the accepted attempt's raw
        :class:`~repro.multiparty.network.MultipartyOutcome` (``None``
        when the session degraded without one).
    """

    intersection: FrozenSet[int]
    status: str
    protocol_name: str
    survivors: Tuple[str, ...]
    crashed: Tuple[str, ...]
    attempts: int
    total_bits: int
    total_rounds: int
    recovery_bits: int
    recovery_rounds: int
    degraded_mode: Optional[str] = None
    failure_reasons: List[str] = field(default_factory=list)
    final_outcome: Optional[MultipartyOutcome] = None

    @property
    def degraded(self) -> bool:
        """True when the retry budget (or the player population) ran out."""
        return self.status == "degraded"

    @property
    def exact(self) -> bool:
        """True when every player contributed (no crash narrowed the run)."""
        return self.status == "exact"

    def superset_of(self, sets: Sequence[Iterable[int]]) -> bool:
        """The one-sided invariant: output contains the true intersection."""
        truth = frozenset.intersection(*(frozenset(s) for s in sets))
        return truth <= self.intersection


def recovery_attempt_seed(seed: int, attempt: int) -> int:
    """The shared-randomness seed of recovery attempt ``attempt``.

    Attempt 0 is the session seed itself -- a crash-free recovered run is
    bit-identical to the unwrapped protocol run -- and later attempts
    derive through the library-wide :func:`~repro.perf.executor.derive_seed`
    lineage (pinned literals in ``tests/test_multiparty_recovery.py``).
    """
    if attempt == 0:
        return seed
    return derive_seed(seed, attempt)


def recovery_fingerprint(outcome: MultipartyRobustOutcome) -> str:
    """SHA-256 over everything replay-relevant in a recovered session.

    Two runs with the same ``(protocol, inputs, seed, fault plan)`` must
    fingerprint identically regardless of executor kind or host -- the
    bit-for-bit replayability contract of the recovery layer.
    """
    import hashlib
    import json

    doc = {
        "protocol": outcome.protocol_name,
        "status": outcome.status,
        "intersection": sorted(outcome.intersection),
        "survivors": list(outcome.survivors),
        "crashed": list(outcome.crashed),
        "attempts": outcome.attempts,
        "total_bits": outcome.total_bits,
        "total_rounds": outcome.total_rounds,
        "recovery_bits": outcome.recovery_bits,
        "recovery_rounds": outcome.recovery_rounds,
        "degraded_mode": outcome.degraded_mode,
        "failure_reasons": outcome.failure_reasons,
    }
    return hashlib.sha256(
        ("repro.multiparty.recovery:" + json.dumps(doc, sort_keys=True)).encode()
    ).hexdigest()


def player_name(index: int) -> str:
    """The canonical name of player ``index``."""
    return f"p{index:05d}"


def player_inputs(
    protocol, sets: Sequence[Iterable[int]]
) -> Dict[str, FrozenSet[int]]:
    """Name the players canonically (:func:`player_name`) and
    validate every input against the protocol's ``n`` and ``k``.

    Malformed inputs are caller bugs: they raise here, before any attempt
    runs, instead of surfacing as channel damage inside the loop.
    """
    if not sets:
        raise ValueError("need at least one player")
    inputs: Dict[str, FrozenSet[int]] = {}
    for index, player_set in enumerate(sets):
        name = player_name(index)
        inputs[name] = validate_set(
            player_set, name, protocol.universe_size, protocol.max_set_size
        )
    return inputs


def run_with_recovery(
    protocol,
    sets: Sequence[Iterable[int]],
    *,
    seed: int = 0,
    policy: Optional[RecoveryPolicy] = None,
    plan: Optional[object] = None,
) -> MultipartyRobustOutcome:
    """Run an m-party intersection protocol to a recovered (or gracefully
    degraded) result under a possibly-crashing network.

    :param protocol: a :class:`~repro.multiparty.coordinator.CoordinatorIntersection`
        or :class:`~repro.multiparty.binary_tree.BinaryTreeIntersection`
        (anything with ``universe_size`` / ``max_set_size`` / ``name`` and
        the ``_player`` generator factory).
    :param sets: one iterable of elements per player.
    :param seed: session seed; attempt seeds derive from it (see
        :func:`recovery_attempt_seed`).
    :param policy: recovery policy (default :class:`RecoveryPolicy()`).
    :param plan: explicit :class:`~repro.faults.plan.FaultPlan` for this
        session; ``None`` uses the process-global plan when installed
        (``REPRO_FAULTS``), else a reliable network.
    :returns: a :class:`MultipartyRobustOutcome`; never raises on channel
        damage (malformed inputs still raise -- caller bugs, checked
        before any attempt runs -- and so does a failure no fault caused).
    """
    policy = policy if policy is not None else RecoveryPolicy()
    return run_session(protocol, sets, seed, policy.max_attempts, plan)[0]


def run_session(
    protocol,
    sets: Sequence[Iterable[int]],
    seed: int,
    max_attempts: int,
    plan: Optional[object],
    *,
    traced: bool = True,
) -> Tuple[MultipartyRobustOutcome, RunningTotals]:
    """The m-player adapter behind :func:`run_with_recovery` and the
    protocols' ``run(recover=False)`` (one attempt, ``traced=False``: no
    ``recovery.*`` events, only ``degraded.output`` on degradation).

    :returns: the session outcome and its per-player bits and rounds,
        summed over every attempt (zero for a player that never ran).
    """
    inputs = player_inputs(protocol, sets)
    if plan is None and _FAULTS.active:
        plan = _FAULTS.plan
    live: List[str] = list(inputs)
    crashed: List[str] = []
    casualties = 0  # crashed during the latest attempt
    session = RunningTotals(
        bits_sent=dict.fromkeys(inputs, 0),
        bits_received=dict.fromkeys(inputs, 0),
    )
    recovery_bits = recovery_rounds = 0
    final: Optional[MultipartyOutcome] = None

    def one_attempt(attempt: int) -> AttemptResult:
        nonlocal live, casualties, final, recovery_bits, recovery_rounds
        if len(live) < 2:
            # A lone survivor needs no network (its own input is the
            # survivors' exact intersection); with none left, nobody can
            # answer.
            return None
        players = list(live)
        totals = RunningTotals()
        try:
            final = run_message_passing(
                {name: protocol._player for name in players},
                {name: inputs[name] for name in players},
                shared_seed=recovery_attempt_seed(seed, attempt),
                fault_plan=plan,
                totals=totals,
            )
        finally:
            # Charge the attempt and retire its dead, finished or not.
            for name, bits in totals.bits_sent.items():
                session.bits_sent[name] += bits
            for name, bits in totals.bits_received.items():
                session.bits_received[name] += bits
            session.rounds += totals.rounds
            if attempt > 0:
                recovery_bits += totals.total_bits
                recovery_rounds += totals.rounds
            casualties = len(totals.crashed)
            crashed.extend(totals.crashed)
            dead = set(totals.crashed)
            live = [name for name in live if name not in dead]
        if casualties:
            # Discard-on-crash rule: even a completed attempt depends on
            # crash timing (did the corpse contribute before dying?);
            # re-running over the survivors pins the result to *their*
            # intersection, independent of timing.
            return "crashed"
        candidate = final.outputs[players[0]]
        if candidate is None:  # pragma: no cover - defensive
            return "root-crashed"
        return frozenset(candidate)

    candidate, attempts, reasons = run_attempts(
        max_attempts,
        one_attempt,
        plan=plan,
        event="recovery.attempt" if traced else None,
        protocol=protocol.name,
        event_fields=lambda: {"crashed": casualties, "survivors": len(live)},
    )
    degraded_mode: Optional[str] = None
    if candidate is None and len(live) == 1 and attempts < max_attempts:
        # The loop stopped early on a lone survivor: its input is the answer.
        candidate, final = inputs[live[0]], None
    if candidate is not None:
        status = "recovered" if crashed else "exact"
    else:
        # Degrade to a certified superset: the root-most survivor's own
        # input, or -- after total extinction -- the canonical first
        # player's, the last set it held before the fail-stop took its
        # memory.
        status = "degraded"
        degraded_mode = "superset" if live else "no-survivors"
        candidate = inputs[live[0] if live else player_name(0)]
        final = None
    if _OBS.active:
        if traced:
            _OBS.tracer.emit(
                "recovery.outcome",
                protocol=protocol.name,
                status=status,
                attempts=attempts,
                recovery_bits=recovery_bits,
                recovery_rounds=recovery_rounds,
            )
        if degraded_mode is not None:
            _OBS.tracer.emit(
                "degraded.output", protocol=protocol.name, mode=degraded_mode
            )
    return MultipartyRobustOutcome(
        intersection=candidate,
        status=status,
        protocol_name=protocol.name,
        survivors=tuple(live),
        crashed=tuple(crashed),
        attempts=attempts,
        total_bits=session.total_bits,
        total_rounds=session.rounds,
        recovery_bits=recovery_bits,
        recovery_rounds=recovery_rounds,
        degraded_mode=degraded_mode,
        failure_reasons=reasons,
        final_outcome=final,
    ), session
