#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload pretrain_sae_serial --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` adds a traced run and reports the per-layer metrics.
Human-readable lines (metadata, checks, figures with their sample
counts) come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every correctness check passed.  The program under test
is imported from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bootstrap() -> None:
    """Put the checkout's ``src/`` first on the path, or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'repro'}")
    sys.path[:0] = [str(ROOT), str(src)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for
    the process engine's shared memory, so the run leaves no process."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    _bootstrap()
    from perfbench.meta import run_metadata
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected one of {sorted(WORKLOADS)})")
    declared = _declared(bool(args.trace))
    out = ROOT / ".perfbench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(args.workload, args.seed, float(args.seconds),
                              bool(args.trace), workdir, out / f"{tag}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    result.meta = run_metadata(result.meta)

    produced = result.metrics
    missing = [name for name in declared if name not in produced]
    if not args.trace and missing:
        raise SystemExit(f"perfbench: end-to-end metrics not produced: {missing}")
    for name in missing:
        # A layer this workload never calls: zero spans, zero time.
        result.put(name, 0.0, declared[name])
    if missing:
        result.details.append(f"not on this workload's path (reported as 0): "
                              f"{', '.join(missing)}")
    for name, (value, unit) in produced.items():
        if name not in declared:
            result.note(name, value, unit)
    result.metrics = {name: result.metrics[name] for name in declared}

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for line in result.lines():
        print(line)
    print(result.final_line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
