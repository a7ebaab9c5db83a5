"""Schema, gates, and baseline comparison of the pipeline benchmark."""

import copy

import pytest

import repro.bench.pipeline as bp
from repro.bench import suite as core
from repro.errors import ConfigurationError

SUITE = bp.SUITE

TINY_SHAPE = dict(n=32, n_visible=12, layers=(8, 12), epochs=2, batch=16)


@pytest.fixture(scope="module")
def report():
    return bp.run_pipeline_bench(quick=True, seed=0, trials=1, shape=TINY_SHAPE)


class TestReportShape:
    def test_schema_and_rows(self, report):
        core.validate(SUITE, report)
        kinds = [r["kind"] for r in report["rows"]]
        assert kinds.count("walltime") == 1
        assert kinds.count("convergence") == len(TINY_SHAPE["layers"])

    def test_walltime_row_is_core_count_tagged(self, report):
        row = next(r for r in report["rows"] if r["kind"] == "walltime")
        assert row["expected_scaling"] == (report["n_cores"] >= 2)
        assert row["ideal_speedup"] > 1.0

    def test_layer0_converges_identically(self, report):
        """Stage 0 is bit-identical to greedy block 0, so its losses match."""
        row = next(
            r for r in report["rows"]
            if r["kind"] == "convergence" and r["layer"] == 0
        )
        assert row["rel_diff"] == 0.0

    def test_convergence_within_tolerance(self, report):
        assert all(
            r["within_tol"] for r in report["rows"] if r["kind"] == "convergence"
        )

    def test_validate_rejects_wrong_schema(self, report):
        bad = copy.deepcopy(report)
        bad["schema"] = "something/v0"
        with pytest.raises(ConfigurationError, match="schema"):
            core.validate(SUITE, bad)

    def test_validate_rejects_missing_scaling_tag(self, report):
        bad = copy.deepcopy(report)
        for row in bad["rows"]:
            if row["kind"] == "walltime":
                del row["expected_scaling"]
        with pytest.raises(ConfigurationError, match="expected_scaling"):
            core.validate(SUITE, bad)


class TestGates:
    def test_single_core_walltime_gate_is_skipped_not_silent(self, report):
        forced = copy.deepcopy(report)
        forced["n_cores"] = 1
        for row in forced["rows"]:
            if row["kind"] == "walltime":
                row["expected_scaling"] = False
        failures, skipped = bp.enforce_gates(forced)
        assert failures == []
        assert len(skipped) == 1 and "skipped" in skipped[0]

    def test_multicore_walltime_gate_binds(self, report):
        forced = copy.deepcopy(report)
        forced["n_cores"] = 4
        for row in forced["rows"]:
            if row["kind"] == "walltime":
                row["expected_scaling"] = True
                row["speedup"] = 1.1
        failures, skipped = bp.enforce_gates(forced)
        assert len(failures) == 1 and "1.10x" in failures[0]
        assert skipped == []

    def test_convergence_gate_binds_on_any_core_count(self, report):
        forced = copy.deepcopy(report)
        for row in forced["rows"]:
            if row["kind"] == "convergence" and row["layer"] == 1:
                row["within_tol"] = False
        failures, _ = bp.enforce_gates(forced)
        assert any("convergence layer 1" in f for f in failures)


class TestBaselineComparison:
    def test_no_regression_against_self(self, report):
        failures, _ = core.compare_to_baseline(SUITE, report, report)
        assert failures == []

    def test_single_core_comparison_is_skipped_with_note(self, report):
        if report["n_cores"] >= 2:
            pytest.skip("requires a single-core measurement")
        failures, skipped = core.compare_to_baseline(SUITE, report, report)
        assert failures == []
        assert any("skipped" in note for note in skipped)

    def test_multicore_regression_detected(self, report):
        base = copy.deepcopy(report)
        cur = copy.deepcopy(report)
        for r in (base, cur):
            r["n_cores"] = 4
            for row in r["rows"]:
                if row["kind"] == "walltime":
                    row["expected_scaling"] = True
        for row in base["rows"]:
            if row["kind"] == "walltime":
                row["speedup"] = 2.0
        for row in cur["rows"]:
            if row["kind"] == "walltime":
                row["speedup"] = 1.2  # below 2.0 * (1 - 0.25)
        failures, skipped = core.compare_to_baseline(SUITE, cur, base)
        assert len(failures) == 1 and "floor" in failures[0]
        assert skipped == []


class TestCommittedBaseline:
    def test_committed_report_is_valid_and_gated(self):
        report = core.load("BENCH_pipeline.json")
        core.validate(SUITE, report)
        failures, skipped = bp.enforce_gates(report)
        assert failures == []
        # The committed baseline was measured on a 1-core container, so
        # its walltime gate must be recorded as explicitly skipped there;
        # a multi-core regeneration must instead pass the 1.3x floor.
        row = next(r for r in report["rows"] if r["kind"] == "walltime")
        if not row["expected_scaling"]:
            assert len(skipped) == 1
        assert all(
            r["within_tol"] for r in report["rows"] if r["kind"] == "convergence"
        )
