"""Phalanx benchmark: end-to-end and per-layer metrics of the simulator.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each simulation runs in a fresh ``python3 perfbench/one_run.py`` process,
one at a time. With ``--trace 0`` the run simulates every scenario of the
workload once, repeats the first, and keeps repeating scenarios until
``--seconds`` have passed; it reports the end-to-end metrics. With
``--trace 1`` each scenario runs once untraced and once under the
outside-in layer tracer of ``tracer.py``; it reports the per-layer metrics
and the tracing overhead.

Every simulation passes a correctness gate: the run is quiescent, honest
traces agree, and ``trace_sha256``, ``committed`` and ``reordered_ratio``
repeat exactly for every run of the same scenario, traced or not. A
simulation that fails the gate counts all its commands as failed and
stays in the sample. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ONE_RUN = os.path.join(HERE, "one_run.py")

sys.path.insert(0, HERE)
from tracer import MEMPOOL_METHODS, REJECT_REASONS, WIRE_KINDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run must end within 180 s; no simulation starts with less than this left.
HARD_LIMIT_S = 170.0
# The host's speed drifts by up to 2x over minutes. Each simulation process
# times one_run.calibrate() just before set-up and just after the run, and
# its set-up and run times are scaled by CAL_REF_S over the mean of the two.
# CAL_REF_S is about the calibration time on the 2-core Xeon VM the benchmark
# was tuned on, so the figures stay near seconds on such a host.
CAL_REF_S = 0.2
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 97, 96, 95, 90, 85, 80, 75)
MIN_BEYOND_TAIL = 10

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_commits_per_s", "1/sim_s"),
    ("commit_latency_p50_ms", "sim_ms"),
    ("commit_latency_tail_ms", "sim_ms"),
    ("in_order_ratio", "ratio"),
    ("committed_frac", "ratio"),
)

PER_LAYER = (
    [
        ("simnet.events", "count"),
        ("simnet.ticks", "count"),
        ("simnet.idle_ticks", "count"),
        ("simnet.loop_self_s", "s"),
        ("simnet.handler_s.on_tick", "s"),
        ("simnet.handler_s.on_message", "s"),
        ("simnet.handler_s.on_batch", "s"),
        ("simnet.handler_s.on_command", "s"),
        ("simnet.self_s", "s"),
    ]
    + [(f"simnet.msgs.{kind}", "count") for kind in WIRE_KINDS]
    + [
        ("byz.tick_s", "s"),
        ("honest.tick_s", "s"),
        ("byz.pre_orders", "count"),
        ("byz.queue_len_mean", "count"),
        ("byz.queue_len_max", "count"),
    ]
    + [(f"mempool.calls.{m}", "count") for m in MEMPOOL_METHODS]
    + [(f"mempool.self_s.{m}", "s") for m in MEMPOOL_METHODS]
    + [(f"mempool.rejects.{r}", "count") for r in REJECT_REASONS]
    + [
        ("mempool.log_store_size", "count"),
        ("mempool.command_store_size", "count"),
        ("mempool.self_s", "s"),
        ("auth.verify_certificate.calls", "count"),
        ("auth.verify_certificate.self_s", "s"),
        ("auth.cert_repeats", "count"),
        ("auth.cert_cache_hit_ratio", "ratio"),
        ("auth.verify_partial.calls", "count"),
        ("auth.partial_sign.calls", "count"),
        ("auth.aggregate.calls", "count"),
        ("auth.self_s", "s"),
        ("consensus.batches", "count"),
        ("consensus.make_order_batch.calls", "count"),
        ("consensus.deliveries", "count"),
        ("consensus.on_delivered.self_s", "s"),
        ("consensus.slot_checks", "count"),
        ("consensus.log_sets", "count"),
        ("consensus.logs_per_set_mean", "count"),
        ("consensus.stalls", "count"),
        ("consensus.fetch_logs", "count"),
        ("consensus.leader_faults", "count"),
        ("consensus.self_s", "s"),
        ("executor.drain.calls", "count"),
        ("executor.drain.self_s", "s"),
        ("executor.selections", "count"),
        ("executor.useful_selection_ratio", "ratio"),
        ("executor.reliable_precedes.calls", "count"),
        ("executor.trusted_timestamp.calls", "count"),
        ("executor.anchor_sets", "count"),
        ("executor.alter_path_ratio", "ratio"),
        ("executor.blocked", "count"),
        ("executor.command_infos_size", "count"),
        ("tsorder.drain.self_s", "s"),
        ("tsorder.flush_ready.calls", "count"),
        ("tsorder.flush_ready.self_s", "s"),
        ("tsorder.trusted_timestamp.calls", "count"),
        ("types.digest_log.calls", "count"),
        ("types.verify_digest.calls", "count"),
        ("types.self_s", "s"),
    ]
    + [(f"wire.bytes.{kind}", "B") for kind in WIRE_KINDS]
    + [
        ("wire.bytes_per_commit", "B"),
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)

# Tracer counters that are not summed over the scenarios of a run.
MAX_OVER_SCENARIOS = (
    "byz.queue_len_max", "mempool.log_store_size", "mempool.command_store_size",
    "executor.command_infos_size",
)


@dataclass
class Sample:
    """One simulation of one scenario, as measured by one_run.py."""

    scenario: int
    traced: bool
    out: dict | None
    error: str = ""
    gate_errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.out is None or bool(self.gate_errors)


def simulate(text: str, traced: bool, index: int, hard_end: float) -> Sample:
    remaining = hard_end - time.monotonic()
    if remaining <= 0:
        return Sample(index, traced, None, "no time left before the run's hard limit")
    try:
        proc = subprocess.run(
            [sys.executable, ONE_RUN, SRC, "1" if traced else "0"],
            input=text, capture_output=True, text=True, timeout=remaining, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return Sample(index, traced, None, "simulation timed out")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return Sample(index, traced, None, f"exit {proc.returncode}: {tail[0]}")
    return Sample(index, traced, json.loads(proc.stdout.splitlines()[-1]))


def gate(samples: list[Sample]) -> None:
    """Record every correctness failure on the sample that shows it."""
    first: dict[int, dict] = {}
    for sample in samples:
        out = sample.out
        if out is None:
            sample.gate_errors.append(sample.error)
            continue
        if out["non_quiescent"]:
            sample.gate_errors.append("not quiescent")
        if not out["consistency"]:
            sample.gate_errors.append("honest traces disagree")
        ref = first.setdefault(sample.scenario, out)
        for key in ("trace_sha256", "committed", "reordered_ratio"):
            if out[key] != ref[key]:
                sample.gate_errors.append(f"{key} differs between runs of one scenario")


def nearest_rank(values: list, pct: float):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def tail_percentile(count: int) -> float | None:
    """Highest listed percentile with at least MIN_BEYOND_TAIL samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if count - math.ceil(pct / 100.0 * count) >= MIN_BEYOND_TAIL:
            return pct
    return None


def calibrated(out: dict, key: str) -> float:
    """A measured time, in seconds at the host speed where calibrate() takes CAL_REF_S."""
    return out[key] * CAL_REF_S / statistics.fmean(out["cal_s"])


def end_to_end(samples: list[Sample]) -> tuple[dict[str, float], list[str]]:
    """End-to-end metrics of the run, and report lines on how they were taken."""
    measured = [s.out for s in samples if s.out is not None and not s.traced]
    first: dict[int, dict] = {}
    for sample in samples:
        if sample.out is not None:
            first.setdefault(sample.scenario, sample.out)
    runs = list(first.values())
    latencies = [ms for out in runs for ms in out["latencies_ms"]]
    committed = sum(out["committed"] for out in runs)
    proposed = sum(out["total_proposed"] for out in runs)
    reordered = statistics.fmean(out["reordered_ratio"] for out in runs)
    tail_pct = tail_percentile(len(latencies)) or 50
    raw = {
        "wall_s": statistics.median(o["wall_s"] for o in measured),
        "setup_s": statistics.median(o["setup_s"] for o in measured),
        "cal_s": statistics.median(statistics.fmean(o["cal_s"]) for o in measured),
    }
    notes = [
        f"wall_s and setup_s are medians over {len(measured)} untraced simulations "
        f"of the time x {CAL_REF_S:g} s / that process's cal_s",
        "unscaled medians: " + ", ".join(f"{k} = {v:.6f} s" for k, v in raw.items()),
        f"commit_latency_tail_ms is p{tail_pct:g} of {len(latencies)} samples, "
        f"{len(latencies) - math.ceil(tail_pct / 100.0 * len(latencies))} beyond it",
        f"reordered_ratio = {reordered:.6f} (in_order_ratio = 1 - reordered_ratio)",
        f"uncommitted_frac = {(proposed - committed) / proposed:.6f} "
        f"(committed_frac = 1 - uncommitted_frac)",
        f"alter_path_ratio = {statistics.fmean(o['alter_path_ratio'] for o in runs):.6f}",
        f"events per simulation = {[o['events'] for o in runs]}",
    ]
    metrics = {
        "wall_s": statistics.median(calibrated(o, "wall_s") for o in measured),
        "setup_s": statistics.median(calibrated(o, "setup_s") for o in measured),
        "peak_rss_mib": statistics.median(o["peak_rss_mib"] for o in measured),
        "sim_commits_per_s": committed / sum(o["sim_time_ms"] for o in runs) * 1000.0,
        "commit_latency_p50_ms": float(nearest_rank(latencies, 50)),
        "commit_latency_tail_ms": float(nearest_rank(latencies, tail_pct)),
        "in_order_ratio": 1.0 - reordered,
        "committed_frac": committed / proposed,
    }
    return metrics, notes


def per_layer(samples: list[Sample]) -> dict[str, float]:
    traced = [s for s in samples if s.traced and s.out is not None]
    untraced: dict[int, list[float]] = {}
    for s in samples:
        if not s.traced and s.out is not None:
            untraced.setdefault(s.scenario, []).append(s.out["wall_s"])
    total: dict[str, float] = {}
    for sample in traced:
        for key, value in sample.out["layers"].items():
            if key in MAX_OVER_SCENARIOS:
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    total["executor.alter_path_ratio"] /= len(traced)

    def ratio(num: str, den: str) -> float:
        return total[num] / total[den] if total.get(den) else 0.0

    total["byz.queue_len_mean"] = ratio("byz.queue_len_total", "byz.pre_orders")
    total["auth.cert_cache_hit_ratio"] = ratio(
        "auth.cert_repeats", "auth.verify_certificate.calls")
    total["consensus.logs_per_set_mean"] = ratio("consensus.logs_in_sets", "consensus.log_sets")
    total["executor.useful_selection_ratio"] = ratio(
        "executor.anchor_sets", "executor.selections")
    committed = sum(s.out["committed"] for s in traced)
    wire_bytes = sum(total[f"wire.bytes.{kind}"] for kind in WIRE_KINDS)
    total["wire.bytes_per_commit"] = wire_bytes / committed if committed else 0.0
    total["trace.wall_s"] = sum(s.out["wall_s"] for s in traced)
    total["trace.overhead_s"] = total["trace.wall_s"] - sum(
        statistics.median(untraced[s.scenario]) for s in traced if s.scenario in untraced
    )
    return {name: total[name] for name, _unit in PER_LAYER}


def host_info() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "phalanx", "__init__.py")):
        print(f"perfbench: no phalanx sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    start = time.monotonic()
    deadline = start + args.seconds
    hard_end = start + HARD_LIMIT_S
    seeds = workload.seeds(args.seed)
    texts = [workload.scenario_text(s) for s in seeds]
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scenario_seeds={seeds}")
    print(f"host {host_info()}")

    samples: list[Sample] = []
    if args.trace:
        for index, text in enumerate(texts):
            samples.append(simulate(text, False, index, hard_end))
            samples.append(simulate(text, True, index, hard_end))
        runs = 0
    else:
        # One pass over every scenario plus one repeat, then fill the time.
        for index, text in enumerate(texts + texts[:1]):
            samples.append(simulate(text, False, index % len(texts), hard_end))
        runs = len(samples)
    while time.monotonic() < deadline:
        index = runs % len(texts)
        samples.append(simulate(texts[index], False, index, hard_end))
        runs += 1

    gate(samples)
    measured = {s.traced for s in samples if s.out is not None}
    if not ({False, True} if args.trace else {False}) <= measured:
        for s in samples:
            print(f"perfbench: scenario seed {seeds[s.scenario]}: {s.error}", file=sys.stderr)
        return 1
    for s in samples:
        for error in s.gate_errors:
            print(f"GATE FAIL scenario seed {seeds[s.scenario]}"
                  f"{' (traced)' if s.traced else ''}: {error}")

    e2e, notes = end_to_end(samples)
    if args.trace:
        metrics = per_layer(samples)
        units = dict(PER_LAYER)
    else:
        metrics, units = e2e, dict(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name:<24} {value:<16.6g} {dict(END_TO_END)[name]}")
    for note in notes:
        print(f"  # {note}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<36} {value:<16.6g} {units[name]}")

    # Every scenario of a workload proposes the same number of commands.
    proposed = next(s.out["total_proposed"] for s in samples if s.out is not None)
    failed = sum(proposed if s.failed else proposed - s.out["committed"] for s in samples)
    result = {
        "correct": not any(s.failed for s in samples),
        "attempted": proposed * len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
