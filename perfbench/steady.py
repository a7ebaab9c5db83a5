#!/usr/bin/env python3
"""Check that the benchmark is steady: run workloads over several seeds.

Usage, from the repository root::

    python3 perfbench/steady.py --workloads pretrain_sae_serial \\
        --seeds 1 2 3 4 5 [--seconds N] [--trace 0]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, and
prints for every end-to-end metric its median and its spread: the
distance between the first and third quartiles of the values
(``statistics.quantiles(values, n=4)``) as a share of their median.  A
metric is marked ``OK`` when its spread is below a third of its bound in
``BENCHMARK.json`` (``setup_s`` is exempt from the spread rule).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every value to this file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in args.seeds]
        values[workload] = {
            name: [r["metrics"][name]["value"] for r in runs]
            for name in runs[0]["metrics"]
        }
        print(f"{workload}: {len(runs)} seeds")
        for name, vals in values[workload].items():
            med = statistics.median(vals)
            sp = spread(vals) if len(vals) > 1 else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                ok = sp < bound / 3.0
                steady &= ok
                verdict = "OK" if ok else f"WIDE (bound {bound})"
            print(f"  {name:28s} median={med:<14.6g} spread={sp:.4f} {verdict}")
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=2), encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
