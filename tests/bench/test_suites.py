"""The shared bench-suite core: registry, schema, fence and report I/O.

Every registered suite goes through the same :mod:`repro.bench.suite`
functions, so the schema, round-trip and CLI checks run once per suite
here; suite modules keep only their own gate tests.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import suite as core
from repro.cli import main
from repro.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[2]


def committed(name):
    return core.load(ROOT / f"BENCH_{name}.json")


@pytest.fixture(params=sorted(core.SUITES))
def name(request):
    return request.param


class TestRegistry:
    def test_registry_names_the_six_suites(self):
        assert sorted(core.SUITES) == [
            "cluster", "hotpath", "parallel", "pipeline", "shard", "workloads",
        ]

    def test_suite_records_match_their_names(self, name):
        suite = core.get(name)
        assert suite.name == name
        assert committed(name)["schema"] == suite.schema

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown bench suite"):
            core.get("nope")


class TestValidate:
    def test_committed_report_validates(self, name):
        core.validate(core.get(name), committed(name))

    def test_wrong_schema_rejected(self, name):
        bad = dict(committed(name), schema="other/v0")
        with pytest.raises(ConfigurationError, match="schema"):
            core.validate(core.get(name), bad)

    def test_missing_field_rejected(self, name):
        suite = core.get(name)
        bad = committed(name)
        row = bad["rows"][0]
        field = next(f for f in suite.fields[row[suite.kind_field]]
                     if f != suite.kind_field)
        del row[field]
        with pytest.raises(ConfigurationError, match=field):
            core.validate(suite, bad)

    def test_missing_row_kind_rejected(self, name):
        suite = core.get(name)
        bad = committed(name)
        gone = bad["rows"][-1][suite.kind_field]
        bad["rows"] = [r for r in bad["rows"] if r[suite.kind_field] != gone]
        with pytest.raises(ConfigurationError, match="missing row kinds"):
            core.validate(suite, bad)

    def test_empty_rows_rejected(self, name):
        bad = dict(committed(name), rows=[])
        with pytest.raises(ConfigurationError, match="no rows"):
            core.validate(core.get(name), bad)


class TestReportIO:
    def test_write_then_load_roundtrips(self, name, tmp_path):
        report = committed(name)
        path = core.write(core.get(name), report, tmp_path / "r.json")
        assert path == str(tmp_path / "r.json")
        assert core.load(path) == report

    def test_writing_a_tampered_report_raises(self, name, tmp_path):
        bad = committed(name)
        del bad["rows"][0][core.get(name).kind_field]
        path = tmp_path / "r.json"
        with pytest.raises(ConfigurationError):
            core.write(core.get(name), bad, path)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["cluster", "shard", "workloads"])
    def test_simulated_clock_baselines_rewrite_byte_identically(
        self, name, tmp_path
    ):
        path = core.write(core.get(name), committed(name), tmp_path / "r.json")
        assert Path(path).read_bytes() == (ROOT / f"BENCH_{name}.json").read_bytes()


class TestCompareToBaseline:
    def test_committed_report_matches_itself(self, name):
        suite = core.get(name)
        report = committed(name)
        failures, _ = core.compare_to_baseline(suite, report, report)
        assert failures == []

    def test_quick_mismatch_is_refused(self):
        suite = core.get("workloads")
        baseline = committed("workloads")
        full = dict(copy.deepcopy(baseline), quick=False)
        failures, skipped = core.compare_to_baseline(suite, full, baseline)
        assert len(failures) == 1 and "cannot compare" in failures[0]
        assert skipped == []

    def test_fence_matching_no_row_fails(self):
        suite = core.get("hotpath")
        baseline = committed("hotpath")
        report = copy.deepcopy(baseline)
        for row in report["rows"]:
            row["batch"] += 1  # a shape the baseline never measured
        failures, _ = core.compare_to_baseline(suite, report, baseline)
        assert len(failures) == 1 and "nothing was compared" in failures[0]

    def test_directions_bound_both_ways(self):
        suite = core.get("shard")
        baseline = committed("shard")
        report = copy.deepcopy(baseline)
        serving = next(r for r in report["rows"] if r["kind"] == "serving")
        serving["p99_ratio"] *= 1.3       # lower is better: beyond ceiling
        serving["throughput_rps"] *= 0.7  # higher is better: beyond floor
        failures, _ = core.compare_to_baseline(suite, report, baseline)
        assert len(failures) == 2
        assert any("p99_ratio" in f and "ceiling" in f for f in failures)
        assert any("throughput_rps" in f and "floor" in f for f in failures)


class TestCommand:
    def test_validate_committed_report_exits_zero(self, name):
        assert main(["bench", name, "--validate", str(ROOT / f"BENCH_{name}.json")]) == 0

    def test_validate_rejects_an_invalid_file(self, tmp_path, capsys):
        bad = committed("cluster")
        bad["schema"] = "other/v0"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["bench", "cluster", "--validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_help_lists_exactly_the_suites(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        out = capsys.readouterr().out
        assert "{" + ",".join(sorted(core.SUITES)) + "}" in out

    def test_quick_workloads_run_gates_and_fence_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main([
            "bench", "workloads", "--quick", "--out", str(out),
            "--baseline", str(ROOT / "BENCH_workloads.json"),
        ]) == 0
        assert out.read_bytes() == (ROOT / "BENCH_workloads.json").read_bytes()
        assert "no regression" in capsys.readouterr().out
