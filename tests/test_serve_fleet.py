"""Tests for the socket transports of `run_load`, the one load entry point.

The load-bearing claim under test: moving the clients out of process --
real sockets, real scheduling, worker interleaving the parent never sees
-- must not change a single bit of the result.  Serial oracle, in-process
clients, TCP fleet, and UDS fleet all replay the same mix document through
:func:`run_load` and must agree on the aggregate fingerprint, with every
operation accounted (``ok + shed == total``) on every path.

Fleet runs spawn real worker processes, so the mixes here are small; the
schedule-partitioning unit tests below cover the combinatorics cheaply.
"""

import pytest

from repro.serve import TRANSPORTS, LoadMix, LoadReport, run_load, run_mix_serial
from repro.serve import loadgen
from repro.serve.loadgen import _encode_frames, _round_robin, generate_schedule
from repro.serve.wire import decode_frame_payload

MIX = LoadMix(
    name="fleet-test",
    seed=23,
    sessions=6,
    ops_per_session=4,
    universe_size=1 << 20,
    set_sizes=(16, 32),
)

#: The report keys every transport must produce.
REPORT_KEYS = set(
    LoadReport(
        mix_name="x", coalesce=True, sessions=1, ops_total=1, ops_ok=1, shed=0
    ).as_dict()
)


class TestFleetDeterminism:
    def test_socket_fleet_matches_serial_and_inproc(self):
        serial = run_mix_serial(MIX)
        inproc = run_load(MIX, tick_s=0.001)
        uds = run_load(MIX, transport="uds", fleet=2, tick_s=0.001)
        tcp = run_load(MIX, transport="tcp", fleet=2, tick_s=0.001)

        for report in (uds, tcp):
            assert report.fleet == 2 and len(report.workers) == 2
            assert report.ops_ok + report.shed == report.ops_total == 24
            assert not report.errors
            assert report.fingerprint == serial["fingerprint"]
        assert inproc.fingerprint == serial["fingerprint"]
        assert inproc.fleet == 0 and inproc.workers == []
        assert uds.transport == "uds" and tcp.transport == "tcp"

    def test_worker_summaries_account_for_every_op(self):
        report = run_load(MIX, transport="uds", fleet=3, tick_s=0.001)
        assert [w["worker"] for w in report.workers] == [0, 1, 2]
        assert sum(w["ops"] for w in report.workers) == report.ops_total
        assert sum(w["ok"] for w in report.workers) == report.ops_ok
        assert sum(w["shed"] for w in report.workers) == report.shed
        assert len(report.latencies_ms) == report.ops_ok

    def test_check_serial_gate_over_the_socket(self):
        report = run_load(
            MIX, transport="uds", fleet=2, tick_s=0.001, check_serial=True
        )
        assert report.serial_match is True

    def test_cold_profile_is_bit_identical(self):
        warm = run_load(MIX, transport="uds", fleet=2, tick_s=0.001)
        cold = run_load(
            MIX, transport="uds", fleet=2, tick_s=0.001, profile="cold"
        )
        assert cold.profile == "cold" and warm.profile == "warm"
        assert cold.fingerprint == warm.fingerprint


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestOneDriver:
    def test_bad_arguments_rejected_before_anything_starts(
        self, transport, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a server started before the checks ran")

        monkeypatch.setattr(loadgen, "IntersectionServer", refuse)
        with pytest.raises(ValueError, match="profile"):
            run_load(MIX, transport=transport, profile="colld")
        with pytest.raises(ValueError, match="transport"):
            run_load(MIX, transport=transport + "6")

    def test_report_shape_and_fingerprint_agree(self, transport):
        report = run_load(
            MIX, transport=transport, tick_s=0.001, check_serial=True
        )
        assert set(report.as_dict()) == REPORT_KEYS
        assert report.transport == transport
        assert report.fleet == (0 if transport == "inproc" else 2)
        assert report.serial_match is True
        assert report.fingerprint == run_mix_serial(MIX)["fingerprint"]


class TestFleetValidation:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            run_load(MIX, transport="carrier-pigeon")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            run_load(MIX, profile="lukewarm")

    def test_fleet_size_must_be_positive(self):
        for transport in ("tcp", "uds"):
            with pytest.raises(ValueError, match="fleet"):
                run_load(MIX, transport=transport, fleet=0)


class TestSchedulePartitioning:
    """The determinism argument's combinatorial half, tested without
    processes: every op appears in exactly one worker's frame list, and
    each session's ops stay in op-index order inside its worker."""

    def test_workers_cover_schedule_exactly_once(self):
        schedule = generate_schedule(MIX)
        seen = []
        for group in _round_robin(range(MIX.sessions), 3):
            _, op_frames = _encode_frames(MIX, group, connections=2)
            for frames in op_frames:
                ids = [request_id for request_id, _ in frames]
                assert ids == sorted(ids)
                seen.extend(ids)
        assert sorted(seen) == list(range(len(schedule)))

    def test_per_session_order_preserved_within_worker(self):
        schedule = generate_schedule(MIX)
        for group in _round_robin(range(MIX.sessions), 2):
            _, op_frames = _encode_frames(MIX, group, connections=1)
            (frames,) = op_frames
            last_by_session = {}
            for request_id, frame in frames:
                op = schedule[request_id]
                assert decode_frame_payload(frame[4:])["id"] == request_id
                previous = last_by_session.get(op.session_index, -1)
                assert op.op_index > previous
                last_by_session[op.session_index] = op.op_index

    def test_connections_bounded_by_sessions(self):
        open_frames, op_frames = _encode_frames(MIX, [0, 1], connections=8)
        assert len(open_frames) == len(op_frames) == 2
        opened = [
            decode_frame_payload(frame[4:])["session"]
            for frames in open_frames
            for frame in frames
        ]
        assert opened == [MIX.session_key(0), MIX.session_key(1)]

    def test_sessions_dealt_round_robin(self):
        assert _round_robin(range(7), 3) == [[0, 3, 6], [1, 4], [2, 5]]
        assert _round_robin(range(2), 8) == [[0], [1]]
        assert _round_robin([4, 9], 0) == [[4, 9]]
