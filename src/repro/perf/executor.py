"""Deterministic parallel trial executor.

Every experiment in this reproduction aggregates Monte Carlo trials over
seeds; the protocols themselves are deterministic functions of their seed,
which makes the trial loop embarrassingly parallel *and* lets parallelism
be bit-exact: run the same pure ``fn`` on the same per-trial seeds and the
results are identical whether the trials execute serially, on threads, or
across processes.  This module is the one place that loop lives:

* :func:`derive_seed` -- the per-trial seed schedule.  SHA-256 of
  ``(root_seed, trial_index)``, so trial seeds are collision-free and
  independent of execution order, chunking, and worker count.
* :func:`run_trials` -- drive ``fn(seed)`` over many trials with chunked
  dispatch to a process pool (or thread pool, or a plain serial loop),
  capturing per-trial wall time and failures, and returning outcomes in
  trial order regardless of completion order.

Determinism contract: ``fn`` must be a *pure function of its seed
argument* -- no reads of mutable globals, no ambient RNG (module-level
``random``), no dependence on ``hash()`` of strings (PYTHONHASHSEED).
Every protocol in this library satisfies this (seeded
:class:`~repro.util.rng.SharedRandomness` everywhere); the guarantee is
exercised by ``tests/test_perf_executor.py``, which checks serial and
4-process runs produce identical transcripts and counters.

Process dispatch requires ``fn`` (and its return values) to be picklable:
module-level functions, ``functools.partial`` over module-level functions,
and protocol instances all qualify; closures do not.  ``run_trials``
detects unpicklable functions up front and falls back to the serial path
(recorded in :attr:`TrialRun.fallback_reason`) rather than failing -- the
results are the same either way, only the wall clock differs.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.util.rng import derive

__all__ = [
    "derive_seed",
    "resolve_workers",
    "TrialOutcome",
    "TrialRun",
    "TrialFailure",
    "run_trials",
    "WORKERS_ENV_VAR",
]

#: Environment variable consulted when ``workers`` is not given explicitly.
WORKERS_ENV_VAR = "REPRO_WORKERS"


def derive_seed(root_seed: int, trial_index: int) -> int:
    """The seed for trial ``trial_index`` of a run rooted at ``root_seed``.

    :func:`repro.util.rng.derive` of the pair, 63 bits: collision-free for all
    practical purposes (birthday bound ``~ trials^2 / 2^64``), stable
    across processes and Python versions, and independent of how trials
    are chunked across workers.

    >>> derive_seed(0, 0) == derive_seed(0, 0)
    True
    >>> derive_seed(0, 1) != derive_seed(1, 0)
    True
    """
    return derive("repro.perf.trial", root_seed, trial_index)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit argument > ``$REPRO_WORKERS`` > 1.

    The default is serial (1): trials are usually short and this library
    runs everywhere from CI containers to laptops, so parallelism is opt-in
    via the knob rather than silently grabbing every core.
    """
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"${WORKERS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return 1


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's result.

    :param index: the trial's position in the run (0-based).
    :param seed: the seed the trial function received.
    :param value: the function's return value (``None`` if it raised).
    :param error: formatted traceback when the trial raised, else ``None``.
    :param duration_s: the trial's own wall time (excludes dispatch).
    :param exception: the raised exception object, when it survives a
        pickle round-trip (so the field behaves identically in serial and
        process runs); ``None`` otherwise -- ``error`` always has the
        traceback text.
    """

    index: int
    seed: int
    value: Any
    error: Optional[str]
    duration_s: float
    exception: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        """True when the trial completed without raising."""
        return self.error is None


class TrialFailure(RuntimeError):
    """Raised by :meth:`TrialRun.values` when trials failed under
    ``strict=True``; carries the failing outcomes."""

    def __init__(self, failures: Sequence[TrialOutcome]) -> None:
        self.failures = list(failures)
        preview = self.failures[0].error or ""
        last_line = preview.strip().splitlines()[-1] if preview else "?"
        super().__init__(
            f"{len(self.failures)} of the trials failed; first error: {last_line}"
        )


@dataclass
class TrialRun:
    """The full, ordered record of one :func:`run_trials` call."""

    outcomes: List[TrialOutcome]
    wall_time_s: float
    workers: int
    chunk_size: int
    executor: str
    fallback_reason: Optional[str] = None
    root_seed: Optional[int] = None
    labels: dict = field(default_factory=dict)

    @property
    def trials(self) -> int:
        """Number of trials executed."""
        return len(self.outcomes)

    @property
    def failures(self) -> List[TrialOutcome]:
        """The outcomes that raised, in trial order."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def trial_time_s(self) -> float:
        """Sum of per-trial durations (CPU-ish time, vs. wall time)."""
        return sum(outcome.duration_s for outcome in self.outcomes)

    def values(self, *, strict: bool = True) -> List[Any]:
        """The trial return values in trial order.

        :param strict: when True (default), re-raise the first failed
            trial's original exception (when it was transportable), or a
            :class:`TrialFailure` otherwise; when False, failed trials
            contribute ``None``.
        """
        if strict:
            failed = self.failures
            if failed:
                if failed[0].exception is not None:
                    raise failed[0].exception
                raise TrialFailure(failed)
        return [outcome.value for outcome in self.outcomes]


def _transportable(exc: BaseException) -> Optional[BaseException]:
    """The exception if it survives a pickle round-trip, else ``None``.

    Checked in every execution mode (not just process dispatch) so an
    outcome's ``exception`` field does not depend on how the trial was
    scheduled.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any transport failure disqualifies
        return None


def _timed_call(
    fn: Callable[[int], Any], index: int, seed: int
) -> TrialOutcome:
    start = time.perf_counter()
    try:
        value = fn(seed)
        error = None
        exception = None
    except Exception as exc:  # noqa: BLE001 - captured and reported per trial
        value = None
        error = traceback.format_exc()
        exception = _transportable(exc)
    return TrialOutcome(
        index=index,
        seed=seed,
        value=value,
        error=error,
        duration_s=time.perf_counter() - start,
        exception=exception,
    )


def _run_chunk(
    fn: Callable[[int], Any], chunk: Sequence[Tuple[int, int]]
) -> List[TrialOutcome]:
    """Worker entry point: run one chunk of ``(index, seed)`` pairs."""
    return [_timed_call(fn, index, seed) for index, seed in chunk]


def _picklable(obj: Any) -> Optional[str]:
    """None if ``obj`` pickles, else a one-line reason."""
    try:
        pickle.dumps(obj)
        return None
    except Exception as exc:  # noqa: BLE001 - any pickle failure counts
        return f"{type(exc).__name__}: {exc}"


def _chunked(
    pairs: Sequence[Tuple[int, int]], chunk_size: int
) -> List[Sequence[Tuple[int, int]]]:
    return [
        pairs[start : start + chunk_size]
        for start in range(0, len(pairs), chunk_size)
    ]


def run_trials(
    fn: Callable[[int], Any],
    seeds: Union[int, Sequence[int]],
    *,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    root_seed: int = 0,
    executor: str = "process",
) -> TrialRun:
    """Run ``fn`` over many trial seeds, serially or in parallel.

    :param fn: the trial function, called as ``fn(seed)``.  Must be pure in
        its seed (see the module docstring); must be picklable for process
        dispatch.
    :param seeds: either an explicit sequence of seeds (used verbatim, in
        order), or an integer trial count -- in which case trial ``i`` runs
        with ``derive_seed(root_seed, i)``.
    :param workers: worker count; ``None`` reads ``$REPRO_WORKERS`` and
        defaults to 1 (serial).
    :param chunk_size: trials per dispatched task.  Default: enough to give
        each worker ~4 chunks (amortizes dispatch overhead while keeping
        the pool load-balanced).
    :param root_seed: root of the derived seed schedule (ignored when
        ``seeds`` is an explicit sequence).
    :param executor: ``"process"`` (default), ``"thread"``, or ``"serial"``.
        Results are identical in all three; threads exist for trial
        functions that cannot pickle, ``serial`` forces the in-process loop.
    :returns: a :class:`TrialRun`; ``run.values()`` gives the per-trial
        results in trial order.
    """
    if executor not in ("process", "thread", "serial"):
        raise ValueError(f"unknown executor {executor!r}")
    if isinstance(seeds, int):
        if seeds < 0:
            raise ValueError(f"trial count must be >= 0, got {seeds}")
        seed_list = [derive_seed(root_seed, index) for index in range(seeds)]
        recorded_root: Optional[int] = root_seed
    else:
        seed_list = [int(seed) for seed in seeds]
        recorded_root = None

    worker_count = resolve_workers(workers)
    pairs = list(enumerate(seed_list))
    fallback_reason: Optional[str] = None

    mode = executor
    if mode == "serial" or worker_count <= 1 or len(pairs) <= 1:
        mode = "serial"
    elif mode == "process":
        reason = _picklable(fn)
        if reason is not None:
            mode = "thread"
            fallback_reason = f"fn not picklable ({reason}); using threads"

    if chunk_size is None:
        chunk_size = max(1, -(-len(pairs) // (worker_count * 4)))

    start = time.perf_counter()
    if mode == "serial":
        outcomes = _run_chunk(fn, pairs)
        effective_workers = 1
    else:
        pool_cls = (
            concurrent.futures.ProcessPoolExecutor
            if mode == "process"
            else concurrent.futures.ThreadPoolExecutor
        )
        effective_workers = min(worker_count, max(1, len(pairs)))
        outcomes = []
        with pool_cls(max_workers=effective_workers) as pool:
            futures = [
                pool.submit(_run_chunk, fn, chunk)
                for chunk in _chunked(pairs, chunk_size)
            ]
            for future in futures:
                outcomes.extend(future.result())
        # Chunks were submitted in order, but make the ordering contract
        # explicit: outcomes are always sorted by trial index.
        outcomes.sort(key=lambda outcome: outcome.index)
    wall = time.perf_counter() - start

    return TrialRun(
        outcomes=outcomes,
        wall_time_s=wall,
        workers=effective_workers,
        chunk_size=chunk_size,
        executor=mode,
        fallback_reason=fallback_reason,
        root_seed=recorded_root,
    )
