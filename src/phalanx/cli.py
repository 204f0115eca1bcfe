"""Command-line front end.

Subcommands:

* ``run``         : execute one scenario file, write result JSON and traces
* ``sweep``       : run a Byzantine-count sweep, write a CSV of metrics
* ``diff-traces`` : compare two committed-order trace files
* ``golden``      : run the built-in micro-scenarios with frozen outcomes

Exit codes: 0 success, 1 runtime failure (non-quiescent run, divergent
traces, failed golden), 2 unusable input (config parse, IO), 3 consistency
violation among honest nodes (a protocol bug, never expected), 4 a run
within f faults that went quiescent with commands left uncommitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .golden import run_all as run_golden_scenarios
from .metrics import first_divergence
from .scenario import (
    STRATEGIES,
    Scenario,
    ScenarioError,
    SweepSpec,
    load_scenario,
    load_sweep,
)
from .simnet import ExperimentResult, run

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_CONSISTENCY = 3
EXIT_UNCOMMITTED = 4

CSV_COLUMNS = [
    "byzantine", "strategy", "rep", "seed",
    "reordered_ratio", "alter_path_ratio", "consistency",
    "resisted", "uncommitted", "non_quiescent",
    "commit_latency_p50_ms", "commit_latency_p99_ms",
]

# A run "resists" manipulation when under half a percent of same-proposer
# pairs commit out of order.
RESIST_THRESHOLD = 0.005


def _output_ok(step) -> bool:
    """Run one output step; on an IO error print it and return False."""
    try:
        step()
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return False
    return True


def _write_outputs(result: ExperimentResult, out_dir: Path) -> None:
    (out_dir / "result.json").write_text(result.to_json(), encoding="utf-8")
    for node_id in sorted(result.traces):
        lines = "\n".join(entry.line() for entry in result.traces[node_id])
        (out_dir / f"trace_node{node_id}.txt").write_text(
            lines + ("\n" if lines else ""), encoding="utf-8"
        )
    if result.batch_trace:
        (out_dir / "batches.txt").write_text(
            "\n".join(result.batch_trace) + "\n", encoding="utf-8"
        )


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.strategy is not None:
            overrides["strategy"] = args.strategy
        if overrides:
            scenario = replace(scenario, **overrides)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    # Create the output directory first, so a bad path fails before the run.
    if not _output_ok(lambda: out_dir.mkdir(parents=True, exist_ok=True)):
        return EXIT_CONFIG
    result = run(scenario, record_batches=args.dump_batches)
    if not _output_ok(lambda: _write_outputs(result, out_dir)):
        return EXIT_CONFIG
    print(json.dumps(result.to_json_dict(), sort_keys=True, indent=2))
    within_f = len(scenario.byzantine) <= scenario.f
    # A run cut short may leave honest nodes at different prefixes of one
    # order; only a quiescent run must end with identical traces.
    if within_f and not (
        result.consistency or (result.non_quiescent and result.prefix_consistent)
    ):
        print("consistency violation among honest nodes", file=sys.stderr)
        return EXIT_CONSISTENCY
    if result.non_quiescent:
        print("run hit the duration guard before quiescence", file=sys.stderr)
        return EXIT_RUNTIME
    if within_f and result.uncommitted:
        print(
            f"run went quiescent with {result.uncommitted} of "
            f"{result.total_proposed} commands uncommitted",
            file=sys.stderr,
        )
        return EXIT_UNCOMMITTED
    return EXIT_OK


def run_sweep_point(scenario: Scenario) -> dict:
    """Worker entry: one sweep point reduced to its CSV row fields."""
    result = run(scenario)
    return {
        "byzantine": len(scenario.byzantine),
        "strategy": scenario.strategy,
        "seed": scenario.seed,
        "reordered_ratio": result.reordered_ratio,
        "alter_path_ratio": result.alter_path_ratio,
        "consistency": result.consistency,
        "resisted": result.reordered_ratio < RESIST_THRESHOLD,
        "uncommitted": result.uncommitted,
        "non_quiescent": result.non_quiescent,
        "commit_latency_p50_ms": result.commit_latency_ms["p50"],
        "commit_latency_p99_ms": result.commit_latency_ms["p99"],
    }


def sweep_rows(spec: SweepSpec, workers: int = 1) -> list[dict]:
    points = spec.points()
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(run_sweep_point, points)
    else:
        rows = [run_sweep_point(point) for point in points]
    for row in rows:
        row["rep"] = row["seed"] - spec.base_seed
    return rows


def _cell(value):
    """A CSV cell: a bool as 0/1, a float with 6 decimals, else as is."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


def write_sweep_csv(rows: list[dict], out_csv: Path) -> None:
    with open(out_csv, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_cell(row[column]) for column in CSV_COLUMNS])


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = load_sweep(args.sweep)
        if args.reps is not None:
            spec = replace(spec, reps=args.reps)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_csv = Path(args.out)
    if not _output_ok(lambda: out_csv.parent.mkdir(parents=True, exist_ok=True)):
        return EXIT_CONFIG
    rows = sweep_rows(spec, workers=args.workers)
    if not _output_ok(lambda: write_sweep_csv(rows, out_csv)):
        return EXIT_CONFIG
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _read_trace_digests(path) -> list[bytes]:
    digests = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 tab-separated fields")
            digests.append(bytes.fromhex(parts[3]))
    return digests


def cmd_diff_traces(args: argparse.Namespace) -> int:
    try:
        left = _read_trace_digests(args.trace_a)
        right = _read_trace_digests(args.trace_b)
    except (OSError, ValueError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    divergence = first_divergence(left, right)
    if divergence is None:
        print("traces identical")
        return EXIT_OK
    print(f"traces diverge at index {divergence}")
    return EXIT_RUNTIME


def cmd_golden(args: argparse.Namespace) -> int:
    outcomes = run_golden_scenarios()
    failed = False
    for outcome in outcomes:
        print(outcome.summary())
        if not outcome.passed or args.verbose:
            for detail in outcome.details:
                print(f"    {detail}")
        failed |= not outcome.passed
    return EXIT_RUNTIME if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phalanx",
        description="Anchor-based ordered consensus: simulation and metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario", help="scenario file (flat key = value)")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override seed")
    p_run.add_argument("--strategy", default=None,
                       choices=STRATEGIES,
                       help="override ordering strategy")
    p_run.add_argument("--dump-batches", action="store_true",
                       help="also write the committed batch stream as hex lines "
                            "(each batch carries only the heads that moved)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep Byzantine counts")
    p_sweep.add_argument("sweep", help="sweep file (scenario + sweep_* keys)")
    p_sweep.add_argument("--out", default="sweep.csv", help="output CSV path")
    p_sweep.add_argument("--reps", type=int, default=None, help="override repetitions")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_diff = sub.add_parser("diff-traces", help="compare two trace files")
    p_diff.add_argument("trace_a")
    p_diff.add_argument("trace_b")
    p_diff.set_defaults(func=cmd_diff_traces)

    p_golden = sub.add_parser("golden", help="run built-in micro-scenarios")
    p_golden.add_argument("--verbose", action="store_true",
                          help="print check details even on success")
    p_golden.set_defaults(func=cmd_golden)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
