"""The correctness oracle: one-sided checks against the generated truth.

Lemma 3.3 of the paper fixes what every answer may be: each output
contains ``S n T`` and lies inside the answering party's own input, and a
degraded answer is a certified superset.  A violation raises
:class:`OracleViolation` and fails the run.  An answer that keeps the
contract but is not the exact truth (a degraded or recovered superset) is
*inexact*: the check returns ``False`` and the run counts it as an error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import AbstractSet, Any, Iterable, Sequence

__all__ = ["OracleViolation", "check_two_party", "check_multi_party"]


class OracleViolation(AssertionError):
    """An answer broke the one-sided contract."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleViolation(message)


def check_two_party(
    kind: str, value: Any, alice: AbstractSet[int], bob: AbstractSet[int]
) -> bool:
    """Check one two-party answer; return whether it is exact.

    :param kind: ``intersect``, ``size``, ``jaccard`` or ``contains-any``.
    :param value: the answer as the wire carries it (a list for
        ``intersect``, ``[num, den]`` or a ``Fraction`` for ``jaccard``).
    :param alice: the answering party's own input ``S``.
    :param bob: the other input ``T``.
    """
    truth = alice & bob
    if kind == "intersect":
        answer = frozenset(value)
        _require(truth <= answer, f"intersect misses {sorted(truth - answer)[:4]}")
        _require(
            answer <= alice, f"intersect outside own input: {sorted(answer - alice)[:4]}"
        )
        return answer == truth
    if kind == "size":
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            f"size is not an integer: {value!r}",
        )
        _require(value >= len(truth), f"size {value} below truth {len(truth)}")
        _require(value <= len(alice), f"size {value} above |S| = {len(alice)}")
        return value == len(truth)
    if kind == "jaccard":
        answer = value if isinstance(value, Fraction) else Fraction(*value)
        union = len(alice | bob)
        exact = Fraction(len(truth), union) if union else Fraction(1)
        # J(c) = c / (|S| + |T| - c) grows with the common count c, and c is
        # at least the true count on every contract-valid path.
        _require(answer >= exact, f"jaccard {answer} below truth {exact}")
        return answer == exact
    if kind == "contains-any":
        _require(isinstance(value, bool), f"contains-any is not a bool: {value!r}")
        _require(value or not truth, "contains-any denies a common element")
        return value == bool(truth)
    raise OracleViolation(f"unknown op kind {kind!r}")


def check_multi_party(output: Iterable[int], sets: Sequence[AbstractSet[int]]) -> bool:
    """Check one m-player answer; return whether it is exact.

    The output must contain the m-way intersection and lie inside some
    player's own input (the holder's; recovery and degradation hand the
    answer to a survivor, so any player may hold it).
    """
    answer = frozenset(output)
    truth = frozenset.intersection(*(frozenset(s) for s in sets))
    _require(truth <= answer, f"m-party answer misses {sorted(truth - answer)[:4]}")
    _require(
        any(answer <= own for own in sets),
        "m-party answer lies inside no player's input",
    )
    return answer == truth
