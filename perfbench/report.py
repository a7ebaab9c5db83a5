"""The result of one benchmark run and how it is printed."""

from __future__ import annotations

import json
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Result:
    """Metrics, correctness checks and metadata of one run.

    ``metrics`` holds the figures the final JSON line reports (name →
    ``(value, unit)``); ``details`` holds human-readable lines, such as the
    same figures under their per-kind names with their sample counts.
    """

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    details: List[str] = field(default_factory=list)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    meta: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, name: str, value: float, unit: str, n=None, why: str = "") -> None:
        count = "" if n is None else f" n={n}"
        tail = f"  # {why}" if why else ""
        self.details.append(f"{name} = {value:.6g} {unit}{count}{tail}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def final_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        })

    def lines(self) -> List[str]:
        out = [f"meta {json.dumps(self.meta, sort_keys=True)}"]
        for name, ok, detail in self.checks:
            out.append(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())
        out.extend(self.details)
        for name, (value, unit) in self.metrics.items():
            out.append(f"metric {name} = {value:.6g} {unit}")
        return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its reaped
    children (worker processes are reaped when their engine closes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
