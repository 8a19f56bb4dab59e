"""The one verify -> confirm -> degrade loop behind both retry stacks.

* the single classifier maps every ``repro.comm.errors`` type (and a
  strict-codec ``ValueError``) to its failure reason;
* an attempt that raises while no fault fired is a bug, not channel
  damage, and re-raises from both adapters;
* malformed m-player inputs raise before any attempt runs;
* a run with no accepted attempt still reports per-player accounting.
"""

import contextlib

import pytest

from repro.comm.errors import (
    MessageToFinishedPlayer,
    ProtocolAborted,
    ProtocolDeadlock,
    ProtocolError,
    ProtocolViolation,
)
from repro.applications.dedup import find_global_duplicates
from repro.faults import inject
from repro.faults.models import PlayerCrash
from repro.faults.retry import failure_reason, run_with_retry
from repro.faults.state import STATE as FAULTS_STATE
from repro.multiparty.binary_tree import BinaryTreeIntersection
from repro.multiparty.coordinator import CoordinatorIntersection
from repro.multiparty.recovery import run_with_recovery
from repro.reporting import multiparty_result_to_dict

PROTOCOL_CLASSES = (CoordinatorIntersection, BinaryTreeIntersection)


@contextlib.contextmanager
def reliable():
    """Suspend any ambient (``REPRO_FAULTS``) plan for the block."""
    previous = FAULTS_STATE.plan
    FAULTS_STATE.install(None)
    try:
        yield
    finally:
        FAULTS_STATE.install(previous)


#: One instance of every ``repro.comm.errors`` type, plus a strict-codec
#: ``ValueError``, with the reason the loop records for it.
CLASSIFIED = [
    (MessageToFinishedPlayer("mailed p1", "p1", 2), "mail-to-dead"),
    (ProtocolAborted("over budget", 90, 64), "aborted"),
    (ProtocolDeadlock("stuck"), "deadlock"),
    (ProtocolViolation("bad yield"), "violation"),
    (ProtocolError("other"), "protocol-error"),
    (ValueError("truncated codeword"), "decode-error"),
]


class TestClassifier:
    @pytest.mark.parametrize("exc, reason", CLASSIFIED)
    def test_table(self, exc, reason):
        assert failure_reason(exc) == reason

    def test_table_covers_every_error_type(self):
        import repro.comm.errors as errors

        covered = {type(exc).__name__ for exc, _ in CLASSIFIED}
        assert set(errors.__all__) <= covered


class _BrokenPair:
    """A two-party protocol whose run is a bug on any channel."""

    name = "broken-pair"
    universe_size = 1 << 10
    max_set_size = 8

    def run(self, s, t, **kwargs):
        raise ProtocolViolation("player yielded garbage")


class _BrokenPlayers:
    """An m-player protocol whose players are a bug on any network."""

    name = "broken-players"
    universe_size = 1 << 10
    max_set_size = 8

    def _player(self, ctx):
        raise ProtocolViolation("player yielded garbage")
        yield  # pragma: no cover - makes this a generator


class TestNoFaultMeansBug:
    def test_retry_reraises(self):
        with reliable(), pytest.raises(ProtocolViolation):
            run_with_retry(_BrokenPair(), {1, 2}, {2, 3}, seed=0)

    def test_recovery_reraises(self):
        with reliable(), pytest.raises(ProtocolViolation):
            run_with_recovery(_BrokenPlayers(), [{1, 2}, {2, 3}], seed=0)

    @pytest.mark.parametrize("recover", (False, True))
    def test_run_reraises(self, recover):
        protocol = CoordinatorIntersection(1 << 10, 8)
        protocol._player = _BrokenPlayers()._player
        with reliable(), pytest.raises(ProtocolViolation):
            protocol.run([{1, 2}, {2, 3}], seed=0, recover=recover)


class TestInputsValidatedUpFront:
    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    @pytest.mark.parametrize("bad", (5000, -3))
    def test_out_of_universe_element_raises(self, protocol_cls, bad):
        protocol = protocol_cls(1000, 8)
        sets = [{1, 2, bad}, {1, 2, bad}, {2, bad}]
        with pytest.raises(ValueError, match="outside universe"):
            protocol.run(sets, seed=0)
        with pytest.raises(ValueError, match="outside universe"):
            run_with_recovery(protocol, sets, seed=0)


#: Eight players over [4096] sharing {7, 300, 2048}.
CRASH_SETS = [
    {7, 300, 2048} | {100 * index + offset for offset in (1, 2, 3)}
    for index in range(8)
]


class TestReportedOutcome:
    """``run()`` without an accepted attempt synthesizes its outcome."""

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    @pytest.mark.parametrize("recover", (None, False, True))
    def test_single_player_accounting(self, protocol_cls, recover):
        result = protocol_cls(1 << 10, 8).run(
            [{1, 2, 3}], seed=0, recover=recover
        )
        assert result.robust is None
        assert result.outcome.max_player_bits == 0
        assert multiparty_result_to_dict(result)["players"] == {
            "p00000": {"sent": 0, "received": 0}
        }

    def test_single_server_dedup(self):
        duplicates, accounting = find_global_duplicates(
            [{1, 2, 3}], universe_size=1 << 10, max_set_size=8
        )
        assert duplicates == {1, 2, 3}
        assert accounting == {
            "total_bits": 0, "rounds": 0, "max_player_bits": 0
        }

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    def test_one_attempt_degradation_keeps_player_bits(self, protocol_cls):
        protocol = protocol_cls(4096, 8)
        with inject(PlayerCrash(1.0, target="p00003"), seed=11):
            result = protocol.run(CRASH_SETS, seed=5, recover=False)
        assert result.status == "degraded"
        outcome = result.outcome
        assert sorted(outcome.bits_sent) == [f"p{i:05d}" for i in range(8)]
        assert outcome.total_bits == result.total_bits > 0
        assert outcome.max_player_bits > 0
        players = multiparty_result_to_dict(result)["players"]
        assert sum(p["sent"] for p in players.values()) == result.total_bits

    @pytest.mark.parametrize("protocol_cls", PROTOCOL_CLASSES)
    def test_recovered_degradation_reports(self, protocol_cls):
        protocol = protocol_cls(4096, 8)
        with inject(PlayerCrash(1.0, max_crashes=8), seed=4):
            result = protocol.run(CRASH_SETS, seed=5, recover=True)
        assert result.status == "degraded"
        assert result.outcome.max_player_bits == 0
        assert len(multiparty_result_to_dict(result)["players"]) == 8
