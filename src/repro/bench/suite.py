"""One report / gate / baseline core for every gated benchmark suite.

Each suite module (hot path, parallel engines, pipelined pre-training,
model-parallel shards, cluster drills, workload SLOs) declares a single
:class:`Suite` record: how to run it, which fields each row kind must
carry, how rows are keyed and compared against a committed baseline,
its gates, and how a row prints.  This module holds the only
:func:`validate`, :func:`compare_to_baseline`, :func:`load` and
:func:`write`, and ``python -m repro bench <suite>`` drives them all.

:data:`SUITES` maps suite names to module paths and resolves them
lazily, so importing :mod:`repro.bench` never pulls in the serving,
cluster, shard or workloads tiers.

Adding a suite: write a module with a ``run(quick, seed) -> report``
function, its gates and a ``SUITE = Suite(...)`` record, then add one
line to :data:`SUITES` (and the suite name to the CI ``bench-gates``
matrix, which a CI step checks against this registry).
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: suite name -> module defining its ``SUITE`` record
SUITES: Dict[str, str] = {
    "cluster": "repro.cluster.benchrun",
    "hotpath": "repro.bench.hotpath",
    "parallel": "repro.bench.parallel",
    "pipeline": "repro.bench.pipeline",
    "shard": "repro.bench.shardbench",
    "workloads": "repro.bench.slobench",
}

#: allowed fractional regression of a baseline metric (every suite)
MAX_REGRESSION = 0.25

#: baseline metric directions
HIGHER = "higher"
LOWER = "lower"

#: field checks beyond presence (``None`` means presence only)
POSITIVE = "a positive number"
NUMBER = "a number"
COUNT = "a positive integer"

Findings = Tuple[List[str], List[str]]


def _no_gates(report: Dict) -> Findings:
    return [], []


@dataclass(frozen=True)
class Suite:
    """Everything the shared core needs to know about one suite.

    ``fields`` maps each row kind (the value of ``kind_field``) to its
    required fields and their checks; every kind must appear in a
    report.  ``meta`` does the same for top-level report fields.
    ``keys`` names the fields (beyond the kind) that identify a row
    across runs, and ``metrics(row)`` the ``(field, HIGHER|LOWER)``
    pairs a row is compared on against a baseline.  ``check`` holds any
    cross-field rule the declarative parts cannot express.
    """

    name: str
    schema: str
    run: Callable[[bool, int], Dict]
    fields: Mapping[str, Mapping[str, Optional[object]]]
    display: Callable[[Dict], str]
    gates: Callable[[Dict], Findings] = _no_gates
    keys: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    metrics: Callable[[Dict], Sequence[Tuple[str, str]]] = lambda row: ()
    meta: Mapping[str, Optional[object]] = field(default_factory=dict)
    kind_field: str = "kind"
    check: Optional[Callable[[Dict], None]] = None


def get(name: str) -> Suite:
    """Resolve a registered suite by name (imports its module)."""
    if name not in SUITES:
        raise ConfigurationError(
            f"unknown bench suite {name!r} (expected one of {sorted(SUITES)})"
        )
    return importlib.import_module(SUITES[name]).SUITE


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def _satisfies(value, check) -> bool:
    if check is None:
        return True
    if check is bool:
        return isinstance(value, bool)
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if check == NUMBER:
        return is_number
    if check == POSITIVE:
        return is_number and value > 0
    if check == COUNT:
        return isinstance(value, int) and not isinstance(value, bool) and value >= 1
    raise ConfigurationError(f"unknown field check {check!r}")


def _describe(check) -> str:
    return "a boolean" if check is bool else str(check)


def validate(suite: Suite, report: Dict) -> None:
    """Raise :class:`ConfigurationError` unless ``report`` fits ``suite``."""
    if not isinstance(report, dict):
        raise ConfigurationError(f"{suite.name} report must be a JSON object")
    if report.get("schema") != suite.schema:
        raise ConfigurationError(
            f"{suite.name} report schema must be {suite.schema!r}, "
            f"got {report.get('schema')!r}"
        )
    for name, check in suite.meta.items():
        if not _satisfies(report.get(name), check):
            raise ConfigurationError(
                f"{suite.name} report must record {name!r} as {_describe(check)}"
            )
    rows = report.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ConfigurationError(f"{suite.name} report has no rows")
    seen = set()
    for i, row in enumerate(rows):
        kind = row.get(suite.kind_field) if isinstance(row, dict) else None
        if kind not in suite.fields:
            raise ConfigurationError(f"rows[{i}]: unknown kind {kind!r}")
        seen.add(kind)
        spec = suite.fields[kind]
        missing = [name for name in spec if name not in row]
        if missing:
            raise ConfigurationError(f"rows[{i}] ({kind}): missing keys {missing}")
        for name, check in spec.items():
            if not _satisfies(row[name], check):
                raise ConfigurationError(
                    f"rows[{i}][{name!r}] must be {_describe(check)}"
                )
    absent = sorted(set(suite.fields) - seen)
    if absent:
        raise ConfigurationError(
            f"{suite.name} report missing row kinds {absent}"
        )
    if suite.check is not None:
        suite.check(report)


def check_equivalence(report: Dict, default_tol: float) -> None:
    """Every row's ``max_abs_diff`` must sit within the report's tolerance."""
    tol = report.get("equiv_tol", default_tol)
    for i, row in enumerate(report["rows"]):
        if row["max_abs_diff"] > tol:
            raise ConfigurationError(
                f"rows[{i}] equivalence violated: max_abs_diff "
                f"{row['max_abs_diff']:g} > {tol:g}"
            )


# ---------------------------------------------------------------------------
# baseline comparison
# ---------------------------------------------------------------------------

def _key(suite: Suite, row: Dict) -> Tuple:
    kind = row[suite.kind_field]
    values = (row.get(name) for name in suite.keys.get(kind, ()))
    return (kind,) + tuple(tuple(v) if isinstance(v, list) else v for v in values)


def _label(suite: Suite, row: Dict) -> str:
    """``kind field=value ...`` — how findings name a row."""
    kind = row[suite.kind_field]
    parts = [str(kind)] + [
        f"{name}={row.get(name)}" for name in suite.keys.get(kind, ())
    ]
    return " ".join(parts)


def compare_to_baseline(
    suite: Suite, report: Dict, baseline: Dict
) -> Findings:
    """Fence each compared metric at :data:`MAX_REGRESSION` of its baseline.

    Returns ``(failures, skipped_notes)``.  Two comparisons that would
    otherwise pass vacuously fail instead: a report and a baseline that
    both record ``quick`` but disagree on it (their shapes differ), and
    a report none of whose rows matches a baseline row.  A row carrying
    ``expected_scaling`` is compared only when both sides are tagged
    true; otherwise it is skipped with a note naming the untagged side.
    """
    validate(suite, report)
    validate(suite, baseline)
    if "quick" in report and "quick" in baseline and (
        bool(report["quick"]) != bool(baseline["quick"])
    ):
        return [
            f"cannot compare quick={report['quick']} run against "
            f"quick={baseline['quick']} baseline (shapes differ); run with "
            "the baseline's size or regenerate the baseline"
        ], []
    base_by_key = {_key(suite, row): row for row in baseline["rows"]}
    failures: List[str] = []
    skipped: List[str] = []
    matched = 0
    for row in report["rows"]:
        metrics = suite.metrics(row)
        base = base_by_key.get(_key(suite, row))
        if not metrics or base is None:
            continue
        matched += 1
        label = _label(suite, row)
        if "expected_scaling" in row and not (
            row["expected_scaling"] and base.get("expected_scaling", False)
        ):
            side = "report" if not row["expected_scaling"] else "baseline"
            skipped.append(
                f"{label}: baseline comparison skipped — {side} row tagged "
                "expected_scaling=false (measured on fewer cores than it needs)"
            )
            continue
        for metric, better in metrics:
            value, ref = row[metric], base[metric]
            if ref <= 0:
                continue
            if better == HIGHER:
                bound = ref * (1.0 - MAX_REGRESSION)
                worse = value < bound
                word = "floor"
            else:
                bound = ref * (1.0 + MAX_REGRESSION)
                worse = value > bound
                word = "ceiling"
            if worse:
                failures.append(
                    f"{label}: {metric} {value:.6g} beyond {word} "
                    f"{bound:.6g} (baseline {ref:.6g}, allowed regression "
                    f"{MAX_REGRESSION:.0%})"
                )
    if not matched:
        failures.append(
            f"no {suite.name} report row matches a baseline row, so nothing "
            "was compared; run with the baseline's shapes"
        )
    return failures, skipped


# ---------------------------------------------------------------------------
# report I/O
# ---------------------------------------------------------------------------

def load(path) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write(suite: Suite, report: Dict, path) -> str:
    """Validate ``report`` against ``suite``, then write it as sorted JSON."""
    validate(suite, report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)
