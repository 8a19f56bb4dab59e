"""The one verify -> confirm -> degrade loop, and its two-party adapter.

The paper's one-sided invariants are exactly what a system needs to detect
and repair channel damage: Lemma 3.3 / Corollary 3.4 guarantee each
party's candidate always lies inside its own input and contains
``S n T``, and *equal candidates are necessarily the true intersection* --
so output agreement is a sound end-to-end verification, and any observable
damage (a strict-codec decode error, a desynchronized channel, a budget
abort, or plain disagreement) can be answered by re-running with fresh
shared randomness (Section 4: "repeating the protocol if it hasn't
succeeded").

:func:`run_attempts` is that rule, written once for every caller.  It owns
the attempt iteration, the one exception -> failure-reason table
(:data:`FAILURE_REASONS`), the suspect-confirmation rule, the reasons list
and the per-attempt trace event.  Callers are adapters: each supplies one
attempt and builds its own outcome type from the loop's verdict.

* :func:`run_with_retry` (this module) adapts a two-party protocol:
  attempt-derived seeds (:func:`attempt_seed`), one shared transcript (so
  ``total_bits`` is the exact across-attempt spend), the policy's
  per-attempt bit budget and simulated backoff.  When no attempt is
  accepted each party outputs its own input, the only candidate that is
  certifiably a superset of ``S n T`` without trusted communication.
* :func:`repro.multiparty.recovery.run_with_recovery` adapts the m-player
  protocols: survivor roster, crash accounting, recovery-bit split.

Two rules make the loop sound under fire:

* **confirmation** -- agreement certifies exactness *on a reliable channel
  only*.  A single corrupted hash message can remove the same true element
  from **both** candidates (the peer filters against the corrupted list,
  then the sender filters against the peer's already-filtered reply), so
  the parties agree on a wrong set and no agreement check can tell.  A
  candidate from an attempt a corrupting fault touched is therefore only a
  **suspect**: it is accepted once an independent attempt -- fresh shared
  randomness, so a consistent corruption cannot replicate -- reproduces
  it.  Attempts no corrupting fault touched accept immediately, so the
  reliable fast path pays nothing.  (Crashes are not corruption: the
  m-player adapter discards crash-touched attempts on its own.)
* **no fault, no retry** -- an attempt that raised while no fault fired
  is a bug, not channel damage, and re-raises instead of being masked as
  degradation.  A budget abort (``ProtocolAborted``) is the policy's own
  timeout and stays an ordinary failed attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.comm.errors import (
    MessageToFinishedPlayer,
    ProtocolAborted,
    ProtocolDeadlock,
    ProtocolError,
    ProtocolViolation,
)
from repro.comm.transcript import Transcript
from repro.faults.plan import FaultPlan
from repro.faults.state import STATE as _FAULTS
from repro.obs.state import STATE as _OBS
from repro.protocols.base import validate_set_pair
from repro.util.rng import derive

__all__ = [
    "FAILURE_REASONS",
    "RetryPolicy",
    "RobustOutcome",
    "attempt_seed",
    "failure_reason",
    "run_attempts",
    "run_with_retry",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy: attempts, per-attempt budget, backoff.

    :param max_attempts: total attempts (>= 1) before degrading.
    :param attempt_bit_budget: per-attempt communication cutoff in bits
        (the policy's "timeout"; ``None`` = no cutoff).  An attempt over
        budget aborts symmetrically and counts as failed.
    :param backoff_base: simulated delay units charged before retry ``i``
        (0 disables backoff accounting).
    :param backoff_factor: exponential growth of the simulated delay.
    :param adaptive_budget: when True (and a budget is set), later
        attempts' budgets grow with the fault pressure the session has
        actually observed (see :meth:`effective_budget`) instead of
        re-using the static per-attempt constant.  A budget sized for the
        reliable channel is systematically too tight once faults are
        firing -- retransmissions and re-verification legitimately cost
        bits -- so the static policy converts recoverable damage into
        budget aborts; the adaptive policy widens exactly in proportion to
        the observed damage while leaving the fault-free fast path (and
        attempt 0) at the original bound.
    """

    max_attempts: int = 5
    attempt_bit_budget: Optional[int] = None
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    adaptive_budget: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, attempt: int) -> float:
        """Simulated backoff charged before retry number ``attempt``
        (0-based: the delay between attempt ``attempt`` and the next)."""
        if self.backoff_base <= 0:
            return 0.0
        return self.backoff_base * self.backoff_factor**attempt

    def effective_budget(
        self, attempt: int, observed_faults: int
    ) -> Optional[int]:
        """The bit budget for ``attempt`` given the session's observed
        fault count so far.

        Static policies (and attempt 0, where nothing has been observed
        yet) use ``attempt_bit_budget`` unchanged; adaptive policies scale
        it by ``1 + observed_faults / attempt`` -- the average fault
        pressure per completed attempt -- so a session seeing one fault per
        attempt doubles its headroom while a fault-free session never pays
        for slack it does not need.  Deterministic: a pure function of the
        policy and the two counters, so retry sessions stay replayable.
        """
        if (
            self.attempt_bit_budget is None
            or not self.adaptive_budget
            or attempt <= 0
        ):
            return self.attempt_bit_budget
        return int(self.attempt_bit_budget * (1.0 + observed_faults / attempt))


@dataclass
class RobustOutcome:
    """Result of a retry-wrapped protocol session.

    On success (``degraded`` False) the outputs are the agreeing candidate
    sets -- by Corollary 3.4, the exact intersection up to the protocol's
    own fingerprint error.  On degradation each party outputs its full
    input (guaranteed ``output_A ⊇ S n T`` and ``output_A ⊆ S``) and
    ``degraded_mode`` says so.
    """

    alice_output: FrozenSet[int]
    bob_output: FrozenSet[int]
    protocol_name: str
    attempts: int
    total_bits: int
    #: Messages across all attempts (the shared transcript's count) -- the
    #: across-attempt round cost, same accounting basis as ``total_bits``.
    total_messages: int
    degraded: bool
    degraded_mode: Optional[str] = None
    simulated_delay: float = 0.0
    failure_reasons: List[str] = field(default_factory=list)
    #: Last completed-but-unverified candidate pair (diagnostics only; not
    #: certified supersets, which is why degradation does not return them).
    last_candidates: Optional[Tuple] = None

    @property
    def agreed(self) -> bool:
        """True when both outputs are the same set."""
        return self.alice_output == self.bob_output

    def correct_for(
        self, alice_set: Iterable[int], bob_set: Iterable[int]
    ) -> bool:
        """True when both outputs equal the true intersection."""
        truth = frozenset(alice_set) & frozenset(bob_set)
        return self.alice_output == truth and self.bob_output == truth


def attempt_seed(seed: int, attempt: int) -> int:
    """Derive attempt ``attempt``'s master seed from the session seed.

    A 64-bit :func:`repro.util.rng.derive` under its own namespace, so
    attempts get independent shared randomness (retrying with the same
    hash functions would deterministically re-hit a collision) while the
    whole session stays a pure function of ``seed``.
    """
    return derive("repro.faults.retry", seed, attempt, bits=64)


#: Exception -> failure reason, most specific type first.
FAILURE_REASONS = (
    # Before its ProtocolViolation parent: the peer is gone, not buggy.
    (MessageToFinishedPlayer, "mail-to-dead"),
    (ProtocolAborted, "aborted"),
    (ProtocolDeadlock, "deadlock"),
    (ProtocolViolation, "violation"),
    (ProtocolError, "protocol-error"),
    # Strict codecs refuse corrupted payloads: a failed verification
    # exchange, not a crash.
    (ValueError, "decode-error"),
)


def failure_reason(exc: Exception) -> str:
    """The reason recorded for an attempt that raised ``exc``."""
    return next(
        reason for kind, reason in FAILURE_REASONS if isinstance(exc, kind)
    )


def _fault_counts(plan: Optional[FaultPlan]) -> Tuple[int, int]:
    """``(faults fired, crashes fired)`` so far under ``plan``."""
    if plan is None:
        return 0, 0
    return plan.injected, plan.counts.get("crash", 0)


#: What one attempt reports: an agreed candidate, a failure reason, or
#: ``None`` when there is nothing left to run.
AttemptResult = Union[FrozenSet[int], str, None]


def run_attempts(
    max_attempts: int,
    one_attempt: Callable[[int], AttemptResult],
    *,
    plan: Optional[FaultPlan],
    event: Optional[str],
    protocol: str,
    event_fields: Callable[[], Dict[str, Any]] = dict,
) -> Tuple[Optional[FrozenSet[int]], int, List[str]]:
    """Run attempts until one is verified and confirmed, or none are left.

    :param max_attempts: the attempt budget.
    :param one_attempt: runs the 0-based attempt it is given and returns
        the agreed candidate set, a failure reason, or ``None`` to stop
        early; may raise any type in :data:`FAILURE_REASONS`.
    :param plan: the session's fault plan (``None``: reliable), read to
        tell corrupted, crashed and untouched attempts apart.
    :param event: the per-failed-attempt trace event (``None``: silent),
        emitted with ``protocol``, ``attempt``, ``reason`` and
        ``event_fields()``.
    :param protocol: the protocol name the events carry.
    :returns: ``(candidate, attempts, reasons)`` -- the accepted candidate
        (``None`` when the caller must degrade), the attempts consumed, and
        the failure reason of every failed attempt.
    """
    reasons: List[str] = []
    suspect: Optional[FrozenSet[int]] = None
    for attempt in range(max_attempts):
        injected, crashes = _fault_counts(plan)
        try:
            result = one_attempt(attempt)
        except (ProtocolError, ValueError) as exc:
            if _fault_counts(plan)[0] == injected and not isinstance(
                exc, ProtocolAborted
            ):
                raise  # no fault fired: a bug, not channel damage
            result = failure_reason(exc)
        if result is None:
            return None, attempt, reasons
        if not isinstance(result, str):
            now_injected, now_crashes = _fault_counts(plan)
            corrupted = (now_injected - injected) - (now_crashes - crashes)
            if corrupted == 0 or result == suspect:
                return result, attempt + 1, reasons
            suspect, result = result, "unconfirmed"
        reasons.append(result)
        if event is not None and _OBS.active:
            _OBS.tracer.emit(
                event,
                protocol=protocol,
                attempt=attempt,
                reason=result,
                **event_fields(),
            )
    return None, max_attempts, reasons


def run_with_retry(
    protocol,
    alice_set: Iterable[int],
    bob_set: Iterable[int],
    *,
    seed: int = 0,
    policy: Optional[RetryPolicy] = None,
    plan: Optional[FaultPlan] = None,
) -> RobustOutcome:
    """Run a two-party intersection protocol to a verified (or gracefully
    degraded) result over a possibly-faulty channel.

    :param protocol: a :class:`~repro.protocols.base.SetIntersectionProtocol`.
    :param alice_set: Alice's input ``S``.
    :param bob_set: Bob's input ``T``.
    :param seed: session seed; attempt seeds derive from it.
    :param policy: retry policy (default :class:`RetryPolicy()`).
    :param plan: explicit fault plan for this session.  ``None`` uses the
        process-global plan if one is installed (``REPRO_FAULTS`` /
        :func:`repro.faults.plan.install`), else a reliable channel.
    :returns: a :class:`RobustOutcome`; never raises on channel damage
        (input-validation errors still raise -- those are caller bugs,
        checked before any attempt runs -- and so does a failure no fault
        caused).
    """
    policy = policy if policy is not None else RetryPolicy()
    s, t = validate_set_pair(
        alice_set, bob_set, protocol.universe_size, protocol.max_set_size
    )
    if plan is None and _FAULTS.active:
        # Resolve the global plan here (rather than letting the engine do
        # it) so the loop and the adaptive budget can read its counters.
        plan = _FAULTS.plan
    injector = plan.inject_two_party if plan is not None else None
    session_faults = plan.injected if plan is not None else 0
    record = Transcript()
    last_candidates: Optional[Tuple] = None

    def one_attempt(attempt: int) -> AttemptResult:
        nonlocal last_candidates
        observed = plan.injected - session_faults if plan is not None else 0
        outcome = protocol.run(
            s,
            t,
            seed=attempt_seed(seed, attempt),
            max_total_bits=policy.effective_budget(attempt, observed),
            transcript=record,
            fault_injector=injector,
        )
        if outcome.alice_output is None or outcome.bob_output is None:
            return "incomplete"
        last_candidates = (outcome.alice_output, outcome.bob_output)
        if outcome.alice_output != outcome.bob_output:
            return "disagreement"
        return outcome.alice_output

    candidate, attempts, reasons = run_attempts(
        policy.max_attempts,
        one_attempt,
        plan=plan,
        event="retry.attempt",
        protocol=protocol.name,
    )
    degraded = candidate is None
    if degraded and _OBS.active:
        _OBS.tracer.emit(
            "retry.exhausted", protocol=protocol.name, attempts=attempts
        )
        _OBS.tracer.emit(
            "degraded.output", protocol=protocol.name, mode="superset"
        )
    return RobustOutcome(
        alice_output=s if degraded else candidate,
        bob_output=t if degraded else candidate,
        protocol_name=protocol.name,
        attempts=attempts,
        total_bits=record.total_bits,
        total_messages=record.num_messages,
        degraded=degraded,
        degraded_mode="superset" if degraded else None,
        simulated_delay=sum(map(policy.delay, range(len(reasons))), 0.0),
        failure_reasons=reasons,
        # Unverified candidates are diagnostics only, kept on degradation.
        last_candidates=last_candidates if degraded else None,
    )
