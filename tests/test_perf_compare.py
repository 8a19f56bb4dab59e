"""The bench regression gate: compare_reports semantics and the CLI wiring.

The gate's contract: same-or-faster passes, a drop beyond tolerance fails,
a vanished micro fails, and the E1 loop must keep certifying bit-identical
counters.  The CLI test injects a synthetic regression through two JSON
files and ``--report`` -- no benchmarks actually run, so the test pins the
exit-code contract, not machine speed.
"""

import io
import json

import pytest

from repro.cli import main
from repro.perf.compare import (
    DEFAULT_TOLERANCE_PCT,
    compare_reports,
    format_comparison,
)
from repro.perf.schema import bench_report_warnings


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def make_report(ops, e1=None, workers=4, cpus=8):
    micro = {
        name: {"ops_per_s": float(value), "wall_s": 1.0, "iterations": 10}
        for name, value in ops.items()
    }
    e1_section = {
        "trials": 8,
        "k": 256,
        "rounds": 2,
        "serial_uncached_s": 1.0,
        "serial_cached_s": 0.5,
        "parallel_s": 0.4,
        "workers": workers,
        "speedup_vs_serial": 2.5,
        "speedup_cached_only": 2.0,
        "bit_identical": True,
        "counters_sha256": "cafe" * 16,
    }
    if e1:
        e1_section.update(e1)
    return {
        "schema_version": 3,
        "suite": "repro.perf.core",
        "created_unix": 0.0,
        "host": {
            "python": "3.11",
            "platform": "test",
            "cpu_count": cpus,
            "cpu_count_affinity": cpus,
        },
        "config": {"workers": workers, "quick": True},
        "micro": micro,
        "e1_trial_loop": e1_section,
    }


class TestCompareReports:
    def test_identical_reports_pass(self):
        report = make_report({"tree_protocol": 100.0})
        result = compare_reports(report, make_report({"tree_protocol": 100.0}))
        assert result["ok"]
        assert result["regressions"] == []

    def test_small_wobble_within_tolerance_passes(self):
        old = make_report({"tree_protocol": 100.0})
        new = make_report({"tree_protocol": 95.0})
        assert compare_reports(old, new, tolerance_pct=10.0)["ok"]

    def test_drop_beyond_tolerance_regresses(self):
        old = make_report({"tree_protocol": 100.0})
        new = make_report({"tree_protocol": 50.0})
        result = compare_reports(old, new, tolerance_pct=10.0)
        assert not result["ok"]
        assert any("tree_protocol" in r for r in result["regressions"])
        (row,) = [r for r in result["micro"] if r["name"] == "tree_protocol"]
        assert row["status"] == "regressed"
        assert row["ratio"] == pytest.approx(0.5)

    def test_wide_tolerance_absorbs_the_same_drop(self):
        old = make_report({"tree_protocol": 100.0})
        new = make_report({"tree_protocol": 50.0})
        assert compare_reports(old, new, tolerance_pct=60.0)["ok"]

    def test_improvement_is_reported_not_flagged(self):
        old = make_report({"tree_protocol": 100.0})
        new = make_report({"tree_protocol": 300.0})
        result = compare_reports(old, new)
        (row,) = [r for r in result["micro"] if r["name"] == "tree_protocol"]
        assert result["ok"] and row["status"] == "improved"

    def test_missing_micro_regresses(self):
        old = make_report({"tree_protocol": 100.0, "batched_equality": 10.0})
        new = make_report({"tree_protocol": 100.0})
        result = compare_reports(old, new)
        assert not result["ok"]
        assert any("batched_equality" in r for r in result["regressions"])

    def test_new_micro_is_welcome(self):
        old = make_report({"tree_protocol": 100.0})
        new = make_report({"tree_protocol": 100.0, "bitwriter_bulk": 5.0})
        result = compare_reports(old, new)
        assert result["ok"]
        (row,) = [r for r in result["micro"] if r["name"] == "bitwriter_bulk"]
        assert row["status"] == "new"

    def test_backend_mismatch_skips_throughput(self):
        # A scalar-backend run (no numpy) against a numpy baseline must not
        # read as a regression -- or as a pass; it is simply not comparable.
        old = make_report({"pairwise_batch": 100.0})
        old["micro"]["pairwise_batch"]["backend"] = "numpy"
        new = make_report({"pairwise_batch": 10.0})
        new["micro"]["pairwise_batch"]["backend"] = "scalar"
        result = compare_reports(old, new)
        assert result["ok"]
        (row,) = [r for r in result["micro"] if r["name"] == "pairwise_batch"]
        assert row["status"] == "skipped"
        assert "backends differ" in row["detail"]

    def test_same_backend_still_gated(self):
        old = make_report({"pairwise_batch": 100.0})
        old["micro"]["pairwise_batch"]["backend"] = "numpy"
        new = make_report({"pairwise_batch": 10.0})
        new["micro"]["pairwise_batch"]["backend"] = "numpy"
        result = compare_reports(old, new, tolerance_pct=10.0)
        assert not result["ok"]

    def test_lost_bit_identity_regresses(self):
        old = make_report({"tree_protocol": 100.0})
        new = make_report({"tree_protocol": 100.0}, e1={"bit_identical": False})
        result = compare_reports(old, new)
        assert not result["ok"]
        assert any("bit_identical" in r for r in result["regressions"])

    def test_counter_drift_on_same_loop_regresses(self):
        old = make_report({"tree_protocol": 100.0})
        new = make_report(
            {"tree_protocol": 100.0}, e1={"counters_sha256": "beef" * 16}
        )
        result = compare_reports(old, new)
        assert not result["ok"]
        assert any("counters_sha256" in r for r in result["regressions"])

    def test_counter_check_skipped_across_loop_configs(self):
        old = make_report({"tree_protocol": 100.0})
        new = make_report(
            {"tree_protocol": 100.0},
            e1={"trials": 96, "counters_sha256": "beef" * 16},
        )
        result = compare_reports(old, new)
        assert result["ok"]
        (row,) = [r for r in result["e1"] if r["check"] == "counters_sha256"]
        assert row["status"] == "skipped"

    @pytest.mark.parametrize("tolerance", [-1.0, 100.0, 250.0])
    def test_tolerance_bounds(self, tolerance):
        report = make_report({"tree_protocol": 100.0})
        with pytest.raises(ValueError):
            compare_reports(report, report, tolerance_pct=tolerance)

    def test_format_mentions_verdict_and_reasons(self):
        old = make_report({"tree_protocol": 100.0})
        good = format_comparison(compare_reports(old, old))
        assert "PASS" in good
        bad = format_comparison(
            compare_reports(old, make_report({"tree_protocol": 10.0}))
        )
        assert "FAIL" in bad and "tree_protocol" in bad


class TestBenchWarnings:
    def test_oversubscribed_workers_warn(self):
        report = make_report({"tree_protocol": 100.0}, workers=4, cpus=1)
        warnings = bench_report_warnings(report)
        assert len(warnings) == 1
        assert "4" in warnings[0] and "1" in warnings[0]

    def test_honest_workers_quiet(self):
        report = make_report({"tree_protocol": 100.0}, workers=2, cpus=8)
        assert bench_report_warnings(report) == []


class TestCliCompareGate:
    def _write(self, path, report):
        path.write_text(json.dumps(report), encoding="utf-8")
        return str(path)

    def test_synthetic_regression_exits_nonzero(self, tmp_path):
        old = self._write(
            tmp_path / "old.json", make_report({"tree_protocol": 100.0})
        )
        new = self._write(
            tmp_path / "new.json", make_report({"tree_protocol": 40.0})
        )
        compare_out = tmp_path / "cmp.json"
        code, output = run_cli(
            [
                "bench",
                "--report", new,
                "--compare", old,
                "--tolerance", "25",
                "--compare-out", str(compare_out),
            ]
        )
        assert code == 1
        assert "FAIL" in output and "tree_protocol" in output
        artifact = json.loads(compare_out.read_text(encoding="utf-8"))
        assert artifact["ok"] is False
        assert artifact["tolerance_pct"] == 25.0

    def test_clean_comparison_exits_zero(self, tmp_path):
        old = self._write(
            tmp_path / "old.json", make_report({"tree_protocol": 100.0})
        )
        new = self._write(
            tmp_path / "new.json", make_report({"tree_protocol": 101.0})
        )
        code, output = run_cli(["bench", "--report", new, "--compare", old])
        assert code == 0
        assert "PASS" in output

    def test_report_without_compare_is_a_usage_error(self, tmp_path):
        new = self._write(
            tmp_path / "new.json", make_report({"tree_protocol": 100.0})
        )
        code, output = run_cli(["bench", "--report", new])
        assert code == 2
        assert "--compare" in output

    def test_missing_baseline_file_fails_cleanly(self, tmp_path):
        new = self._write(
            tmp_path / "new.json", make_report({"tree_protocol": 100.0})
        )
        code, output = run_cli(
            ["bench", "--report", new, "--compare", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "cannot read" in output


class TestNewMicros:
    def test_engine_micros_run_and_agree(self):
        from repro.perf.bench import (
            _op_bitstring_concat,
            _op_bitwriter_bulk,
            _op_transcript_append,
        )

        _op_bitwriter_bulk()
        _op_bitstring_concat()
        _op_transcript_append()


class TestMixedSchemaBackends:
    # Schema v2 reports carry no per-micro ``backend`` tag; v3 reports do.
    # A mixed compare must skip the throughput check in both directions --
    # ``None`` vs a real tag is a configuration difference, same as
    # ``numpy`` vs ``scalar``.

    def test_tagged_baseline_vs_untagged_new_is_skipped(self):
        old = make_report({"pairwise_batch": 100.0})
        old["micro"]["pairwise_batch"]["backend"] = "numpy"
        new = make_report({"pairwise_batch": 10.0})
        result = compare_reports(old, new)
        assert result["ok"]
        (row,) = [r for r in result["micro"] if r["name"] == "pairwise_batch"]
        assert row["status"] == "skipped"
        assert "backends differ" in row["detail"]

    def test_untagged_baseline_vs_tagged_new_is_skipped(self):
        old = make_report({"pairwise_batch": 100.0})
        new = make_report({"pairwise_batch": 10.0})
        new["micro"]["pairwise_batch"]["backend"] = "scalar"
        result = compare_reports(old, new)
        assert result["ok"]
        (row,) = [r for r in result["micro"] if r["name"] == "pairwise_batch"]
        assert row["status"] == "skipped"

    def test_new_micro_never_gates_even_with_backend_tag(self):
        # A micro the baseline has never seen cannot regress, whatever its
        # backend or throughput.
        old = make_report({"tree_protocol": 100.0})
        new = make_report({"tree_protocol": 100.0, "fresh_micro": 0.001})
        new["micro"]["fresh_micro"]["backend"] = "scalar"
        result = compare_reports(old, new)
        assert result["ok"]
        (row,) = [r for r in result["micro"] if r["name"] == "fresh_micro"]
        assert row["status"] == "new"
        assert row["ratio"] is None


class TestTimeOp:
    def test_iterations_count_the_timed_calls_exactly(self):
        from repro.perf.bench import _time_op

        calls = []
        result = _time_op(lambda: calls.append(None), 0.005)
        # Four equal blocks of block_iters calls each, plus the single
        # calibration warm-up call which is *not* part of ``iterations``.
        assert result["iterations"] % 4 == 0
        assert len(calls) == result["iterations"] + 1
        assert result["ops_per_s"] > 0
        assert result["wall_s"] > 0

    def test_wall_time_excludes_the_warmup_call(self, monkeypatch):
        import types

        from repro.perf import bench

        # A fake clock, so no host stall can move the numbers: the
        # calibration call costs 200 ticks, every timed call 1.
        clock = {"now": 0, "calls": 0}

        def op():
            clock["now"] += 200 if clock["calls"] == 0 else 1
            clock["calls"] += 1

        monkeypatch.setattr(
            bench, "time", types.SimpleNamespace(perf_counter=lambda: clock["now"])
        )
        result = bench._time_op(op, 1600)
        # target / once = 1600 / 200 = 8 calls, split into four blocks of
        # two; the blocks cover exactly their 8 one-tick calls and not
        # the 200-tick warm-up.
        assert result["iterations"] == 8
        assert result["wall_s"] == 8
        assert result["ops_per_s"] == 1.0
        assert clock["calls"] == 9
