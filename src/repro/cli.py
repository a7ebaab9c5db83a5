"""Command-line interface: regenerate the paper's artefacts from a shell.

    python -m repro table1                 # Table I grid
    python -m repro fig7 --model rbm       # Fig. 7b series
    python -m repro fig8 | fig9 | fig10
    python -m repro overlap                # §IV.A transfer study
    python -m repro headline               # the abstract's three claims
    python -m repro cores                  # core-count scaling extension
    python -m repro roofline               # roofline of one SAE step
    python -m repro serve-bench            # inference serving sweep
    python -m repro bench SUITE [--quick]  # a gated suite: hotpath, parallel,
                                           # pipeline, shard, cluster, workloads
    python -m repro chaos [--quick]        # fault-injection + resume drill
    python -m repro chaos --under-load mixed_train_serve  # faults mid-replay
    python -m repro chaos --shard          # shard kill + exchange-kill drills
    python -m repro trace-gen --pattern diurnal --out d.jsonl  # save a trace
    python -m repro all                    # everything (except benches + chaos)
    python -m repro table1 --csv out.csv   # export rows

Exit status 0 on success; harness errors propagate as non-zero.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _rows_for(command: str, model: str, args=None):
    """Dispatch a command name to its harness rows + title."""
    from repro.bench import harness

    if command == "table1":
        return harness.run_table1(), "Table I: optimization steps (seconds)"
    if command == "fig7":
        return harness.run_fig7(model), f"Fig. 7 ({model}): time vs network size"
    if command == "fig8":
        return harness.run_fig8(model), f"Fig. 8 ({model}): time vs dataset size"
    if command == "fig9":
        return harness.run_fig9(model), f"Fig. 9 ({model}): time vs batch size"
    if command == "fig10":
        return [harness.run_fig10()], "Fig. 10: Matlab vs Phi"
    if command == "overlap":
        return [harness.run_transfer_overlap()], "§IV.A transfer overlap"
    if command == "headline":
        rows = [
            {
                "claim": name,
                "speedup": report.speedup,
                "candidate_s": report.candidate_seconds,
                "baseline_s": report.baseline_seconds,
            }
            for name, report in harness.run_headline_claims().items()
        ]
        return rows, "Headline claims (paper: >300x, 7-10x, ~16x)"
    if command == "cores":
        return harness.run_core_scaling(), "Core-count scaling (extension)"
    if command == "roofline":
        from repro.core.oplist import autoencoder_step_kernels
        from repro.phi.roofline import analyze_kernels, roofline_report
        from repro.phi.spec import XEON_PHI_5110P
        from repro.runtime.backend import OptimizationLevel, backend_for_level

        points = analyze_kernels(
            autoencoder_step_kernels(10_000, 1024, 4096),
            XEON_PHI_5110P,
            backend_for_level(OptimizationLevel.IMPROVED),
        )
        return roofline_report(points), "Roofline: one SAE step on the Phi"
    if command == "verify":
        from repro.bench.validation import verification_report

        rows, _ = verification_report()
        return rows, "Claim verification (EXPERIMENTS.md)"
    if command == "serve-bench":
        from repro.serve import run_serve_bench

        duration = getattr(args, "duration", None) or 1.0
        seed = getattr(args, "seed", None)
        rows = run_serve_bench(
            duration_s=duration, seed=0 if seed is None else seed
        )
        return rows, "Serving sweep: batch policy x arrival rate (simulated Phi)"
    if command == "chaos":
        from repro.testing.chaos import run_chaos

        under_load = getattr(args, "under_load", None)
        shard = bool(getattr(args, "shard", False))
        rows = run_chaos(
            quick=bool(getattr(args, "quick", False)),
            checkpoint_dir=getattr(args, "checkpoint_dir", None),
            resume=bool(getattr(args, "resume", False)),
            seed=getattr(args, "seed", None) or 0,
            under_load=under_load,
            shard=shard,
        )
        if shard:
            title = "Shard chaos: degraded serving + exchange-kill resume"
        elif under_load:
            title = "Chaos under load: faults injected mid-replay, SLO budget held"
        else:
            title = "Chaos drill: injected faults, recovery, bit-identical resume"
        return rows, title
    if command == "trace-gen":
        from repro.errors import ConfigurationError
        from repro.workloads import generate

        out = getattr(args, "out", None)
        if out is None:
            raise ConfigurationError("trace-gen requires --out PATH")
        trace = generate(
            getattr(args, "pattern", None) or "diurnal",
            seed=getattr(args, "seed", None) or 0,
            quick=bool(getattr(args, "quick", False)),
        )
        path = trace.save(out)
        row = {
            "pattern": trace.pattern,
            "seed": trace.seed,
            "duration_s": trace.duration_s,
            "requests": trace.n_requests,
            "train": trace.n_train,
            "payload_pool": trace.payload_pool,
            "fingerprint": trace.fingerprint()[:16],
            "path": str(path),
        }
        return [row], "Trace generated (replay with chaos --under-load PATH)"
    raise ValueError(f"unknown command {command!r}")


_COMMANDS = [
    "table1", "fig7", "fig8", "fig9", "fig10", "overlap", "headline",
    "cores", "roofline", "serve-bench", "verify", "chaos", "trace-gen",
    "bench", "all",
]

#: commands too slow / machine-dependent to fold into ``all``
_EXCLUDED_FROM_ALL = {"chaos", "trace-gen", "bench"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation of 'Training Large Scale Deep Neural "
            "Networks on the Intel Xeon Phi Many-core Coprocessor' "
            "(IPDPSW 2014) on the simulated machines."
        ),
    )
    parser.add_argument(
        "command", choices=_COMMANDS,
        help="artefact to regenerate ('bench SUITE' runs a gated suite, "
        "see 'repro bench --help')",
    )
    parser.add_argument(
        "--model",
        choices=["autoencoder", "rbm"],
        default="autoencoder",
        help="which panel for figs 7-9 (default: autoencoder)",
    )
    parser.add_argument("--csv", metavar="PATH", help="also write the rows as CSV")
    parser.add_argument("--json", metavar="PATH", help="also write the rows as JSON")
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve-bench: simulated seconds of traffic per sweep cell (default 1.0)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="serve-bench / chaos / trace-gen: workload seed (default 0)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="chaos / trace-gen: short drills and traces (CI smoke run)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="chaos: persist drill checkpoints under DIR (default: temp dir)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="chaos: finish an interrupted drill from --checkpoint-dir snapshots",
    )
    parser.add_argument(
        "--under-load",
        metavar="TRACE",
        default=None,
        help=(
            "chaos: inject faults mid-replay of TRACE (a workload pattern "
            "name or a saved trace file) and assert the SLO budget holds"
        ),
    )
    parser.add_argument(
        "--shard",
        action="store_true",
        help="chaos: run the model-parallel shard drills instead",
    )
    parser.add_argument(
        "--pattern",
        metavar="NAME",
        default=None,
        help="trace-gen: workload pattern to sample (default diurnal)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="trace-gen: trace file to write",
    )
    return parser


def build_bench_parser() -> argparse.ArgumentParser:
    from repro.bench.suite import SUITES

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Run one gated benchmark suite, apply its gates and optionally "
            "fence it against a committed baseline.  Exits 1 on any schema "
            "error, gate failure or regression."
        ),
    )
    parser.add_argument("suite", choices=sorted(SUITES), help="suite to run")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized shapes and drills (same gates)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--out", metavar="PATH", help="write the JSON report")
    parser.add_argument(
        "--validate", metavar="PATH",
        help="check this saved report instead of running the suite",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help="fail on a >25%% regression of the suite's metrics vs this report",
    )
    return parser


def bench_main(argv: List[str]) -> int:
    """``repro bench <suite>``: run or load, validate, gate, compare."""
    from repro.bench import suite as core
    from repro.errors import ConfigurationError

    args = build_bench_parser().parse_args(argv)
    suite = core.get(args.suite)
    try:
        if args.validate:
            report = core.load(args.validate)
            core.validate(suite, report)
            print(f"{args.validate}: schema OK")
        else:
            report = suite.run(args.quick, args.seed)
            print(" ".join(
                f"{key}={value}" for key, value in report.items()
                if key not in ("schema", "rows")
                and not isinstance(value, (list, dict))
            ))
            for row in report["rows"]:
                print(suite.display(row))
            core.validate(suite, report)
        if args.out:
            print(f"wrote {core.write(suite, report, args.out)}")
        failures, skipped = suite.gates(report)
        if args.baseline:
            regressions, notes = core.compare_to_baseline(
                suite, report, core.load(args.baseline)
            )
            skipped = skipped + notes
        else:
            regressions = []
    except (ConfigurationError, ValueError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    for note in skipped:
        print(f"SKIPPED: {note}")
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    for regression in regressions:
        print(f"REGRESSION: {regression}", file=sys.stderr)
    if not failures:
        print(f"{suite.name}: gates passed")
    if args.baseline and not regressions:
        print(f"{suite.name}: no regression vs {args.baseline}")
    return 1 if failures or regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["bench"]:
        return bench_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench":
        parser.error("'bench' takes its own options: repro bench SUITE [--quick] ...")
    from repro.bench.report import format_table, write_csv, write_json

    commands = (
        [c for c in _COMMANDS if c != "all" and c not in _EXCLUDED_FROM_ALL]
        if args.command == "all"
        else [args.command]
    )
    all_rows = []
    status = 0
    for command in commands:
        rows, title = _rows_for(command, args.model, args)
        print(format_table(rows, title=title))
        print()
        all_rows.extend(rows)
        if command == "verify" and any(r.get("status") == "FAIL" for r in rows):
            status = 1
        if command == "chaos" and any(not r.get("ok", False) for r in rows):
            status = 1
    if args.csv:
        print(f"wrote {write_csv(all_rows, args.csv)}")
    if args.json:
        print(f"wrote {write_json(all_rows, args.json, title=args.command)}")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
