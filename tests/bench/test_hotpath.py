"""Tests for the hot-path benchmark suite (repro.bench.hotpath)."""

import copy

import pytest

from repro.bench import suite as core
from repro.bench.hotpath import EQUIV_TOL, SCHEMA_ID, SUITE, run_hotpath_bench
from repro.errors import ConfigurationError

TINY = ((4, 12, 6),)


@pytest.fixture(scope="module")
def report():
    # one real (tiny) run shared by the module's tests
    return run_hotpath_bench(TINY, trials=1, inner=1, seed=0)


class TestRunHotpathBench:
    def test_report_shape(self, report):
        assert report["schema"] == SCHEMA_ID
        assert {row["model"] for row in report["rows"]} == {"sae", "rbm"}
        for row in report["rows"]:
            assert row["batch"] == 4
            assert row["ref_ms"] > 0 and row["fused_ms"] > 0
            assert row["speedup"] == pytest.approx(
                row["ref_ms"] / row["fused_ms"], rel=1e-3
            )

    def test_rows_satisfy_equivalence_gate(self, report):
        for row in report["rows"]:
            assert row["max_abs_diff"] <= EQUIV_TOL

    def test_report_validates(self, report):
        core.validate(SUITE, report)


class TestValidateReport:
    def test_rejects_wrong_schema(self, report):
        bad = copy.deepcopy(report)
        bad["schema"] = "something/else"
        with pytest.raises(ConfigurationError, match="schema"):
            core.validate(SUITE, bad)

    def test_rejects_missing_field(self, report):
        bad = copy.deepcopy(report)
        del bad["rows"][0]["speedup"]
        with pytest.raises(ConfigurationError, match="speedup"):
            core.validate(SUITE, bad)

    def test_rejects_empty_rows(self, report):
        bad = copy.deepcopy(report)
        bad["rows"] = []
        with pytest.raises(ConfigurationError, match="rows"):
            core.validate(SUITE, bad)

    def test_rejects_equivalence_violation(self, report):
        bad = copy.deepcopy(report)
        bad["rows"][0]["max_abs_diff"] = 1e-3
        with pytest.raises(ConfigurationError, match="equivalence"):
            core.validate(SUITE, bad)

    def test_rejects_nonpositive_timing(self, report):
        bad = copy.deepcopy(report)
        bad["rows"][0]["fused_ms"] = 0.0
        with pytest.raises(ConfigurationError, match="fused_ms"):
            core.validate(SUITE, bad)


class TestCompareToBaseline:
    def test_identical_report_passes(self, report):
        assert core.compare_to_baseline(SUITE, report, report) == ([], [])

    def test_within_tolerance_passes(self, report):
        current = copy.deepcopy(report)
        for row in current["rows"]:
            row["speedup"] = round(row["speedup"] * 0.80, 4)  # -20% < 25%
        assert core.compare_to_baseline(SUITE, current, report) == ([], [])

    def test_regression_is_flagged(self, report):
        current = copy.deepcopy(report)
        current["rows"][0]["speedup"] = round(
            report["rows"][0]["speedup"] * 0.5, 4
        )
        failures, _ = core.compare_to_baseline(SUITE, current, report)
        assert len(failures) == 1
        assert report["rows"][0]["model"] in failures[0]

    def test_new_shape_is_not_compared(self, report):
        current = copy.deepcopy(report)
        current["rows"][0]["batch"] = 999  # no matching baseline row
        current["rows"][0]["speedup"] = 0.01
        assert core.compare_to_baseline(SUITE, current, report) == ([], [])


class TestCommittedBaseline:
    def test_committed_baseline_is_valid_and_meets_paper_gate(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "BENCH_hotpath.json"
        )
        if not os.path.exists(path):
            pytest.skip("BENCH_hotpath.json not present")
        baseline = core.load(path)
        core.validate(SUITE, baseline)
        paper_rows = [
            r for r in baseline["rows"]
            if (r["batch"], r["n_visible"], r["n_hidden"]) == (100, 4096, 1024)
        ]
        assert {r["model"] for r in paper_rows} == {"sae", "rbm"}
        for row in paper_rows:
            assert row["speedup"] >= 1.5
