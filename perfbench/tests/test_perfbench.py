"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
They check that the outside-in tracer accounts for all traced time, leaves
no patch behind, and does not change what the simulation computes.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import one_run  # noqa: E402
import run  # noqa: E402
from phalanx import NodeBehavior, Scenario, Simulation  # noqa: E402
from phalanx.scenario import TIMESTAMP  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = [
    Scenario(n=4, f=1, commands_per_proposer=40, propose_interval=0, latency=(1, 5),
             byzantine={3: NodeBehavior(shuffle=True)}, seed=11),
    Scenario(n=7, f=2, proposers=2, commands_per_proposer=12, delta_o=20,
             latency=(1, 300), propose_interval=5, seed=12),
    Scenario(n=7, f=2, proposers=2, commands_per_proposer=12, delta_o=20,
             latency=(1, 300), propose_interval=5, strategy=TIMESTAMP,
             byzantine={6: NodeBehavior(shuffle=True, skew=-100)}, seed=13),
]


def traced_run(scenario: Scenario):
    sim = Simulation(scenario)
    tracer = Tracer(sim)
    tracer.install()
    stamps = one_run.capture_commit_times(sim)
    try:
        result = sim.run()
    finally:
        tracer.uninstall()
    return tracer, result, stamps


@pytest.mark.parametrize("scenario", SMALL, ids=lambda s: f"seed{s.seed}")
def test_self_times_sum_to_traced_total(scenario):
    tracer, result, _ = traced_run(scenario)
    selfs, incl, calls = tracer.self_times_ns()
    assert calls["simnet.run"] == 1
    assert sum(selfs.values()) == incl["simnet.run"]
    assert all(ns >= 0 for ns in selfs.values())
    layers = tracer.report(result)
    layer_total = sum(layers[f"{layer}.self_s"] for layer in ("simnet", "mempool", "auth",
                                                               "consensus", "executor",
                                                               "tsorder", "types"))
    assert layer_total == pytest.approx(layers["trace.root_s"], rel=1e-9)


def test_wrappers_fully_removed_after_traced_run():
    from phalanx import authenticators, consensus, executor, mempool, simnet, tsorder, types

    owners = [types, types.PartialOrderLog, simnet.Simulation, simnet._Node,
              mempool.Mempool, authenticators.Authenticator,
              authenticators.HmacAuthenticator, consensus.Consenter,
              consensus.SequencerBroadcast, executor.Executor, tsorder.TimestampExecutor]
    before = [dict(vars(owner)) for owner in owners]
    tracer, _, _ = traced_run(SMALL[0])
    assert not tracer.patches
    for owner, snapshot in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == snapshot.keys(), owner
        assert all(after[key] is snapshot[key] for key in snapshot), owner


def test_install_patches_every_layer():
    sim = Simulation(SMALL[0])
    tracer = Tracer(sim)
    tracer.install()
    try:
        patched = {getattr(owner, "__name__", owner) for owner, _, _ in tracer.patches}
    finally:
        tracer.uninstall()
    assert {"Simulation", "_Node", "Mempool", "Authenticator", "HmacAuthenticator",
            "Consenter", "Executor", "TimestampExecutor", "phalanx.types",
            "PartialOrderLog"} <= patched


@pytest.mark.parametrize("scenario", SMALL, ids=lambda s: f"seed{s.seed}")
def test_outside_wrapped_run_reproduces_untraced_trace(scenario):
    untraced = Simulation(scenario).run()
    _, traced, stamps = traced_run(scenario)
    assert traced.trace_sha256() == untraced.trace_sha256()
    assert traced.committed == untraced.committed
    assert len(stamps) == traced.committed
    assert stamps == sorted(stamps)
    assert all(ms >= 0 for ms in one_run.commit_latencies(traced, stamps))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(80) == 85
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(5) is None


def test_times_scale_by_the_process_calibration():
    out = {"wall_s": 2.0, "setup_s": 0.1, "cal_s": [0.1, 0.3]}
    assert run.calibrated(out, "wall_s") == pytest.approx(2.0 * run.CAL_REF_S / 0.2)
    assert run.calibrated(out, "setup_s") == pytest.approx(0.1 * run.CAL_REF_S / 0.2)
    assert one_run.calibrate(rounds=500) > 0
    assert gc.isenabled()


def test_workload_seeds_come_from_the_benchmark_seed():
    for workload in WORKLOADS.values():
        seeds = workload.seeds(7)
        assert seeds[0] == workload.reference_seed
        assert len(seeds) == workload.scenarios
        assert seeds == workload.seeds(7)
        if workload.scenarios > 1:
            assert seeds != workload.seeds(8)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "burst4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
