"""Run one scenario in this fresh process and print its measurements as JSON.

Usage: python3 one_run.py <src_dir> <trace 0|1>   (scenario text on stdin)

The scenario arrives in the repository's own scenario-file format, so the
program under test receives nothing but a ``Scenario``. ``setup_s`` covers
``import phalanx`` plus ``Simulation(scenario)`` construction; ``wall_s``
covers ``Simulation.run()`` from start to quiescence. ``cal_s`` holds the times
of a fixed calibration workload run just before set-up and just after the
simulation: the yardstick of host speed ``run.py`` scales both by. Commit times
are captured from outside by wrapping the reference node's executor
instance. With trace 1 the layer wrappers of ``tracer.py`` are installed
after construction and the per-layer report is added to the output.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import hmac
import json
import resource
import sys
import time

COMMIT_HOOKS = ("drain", "unblock", "flush_ready")
CAL_ROUNDS = 10000


class _CalMsg:
    __slots__ = ("dst", "seq", "body")

    def __init__(self, dst: int, seq: int, body: bytes) -> None:
        self.dst = dst
        self.seq = seq
        self.body = body


def calibrate(rounds: int = CAL_ROUNDS) -> float:
    """Seconds this process takes for a fixed workload that imports no phalanx.

    It mixes what the simulator spends its time on (a heap of events,
    slotted objects, dict updates, HMAC-SHA256 of short messages, and a
    filtering pass over a per-destination log of up to 256 entries on
    every message), so a host that slows down slows both alike. The
    collector is off so the simulation's heap, still alive at the second
    call, does not add to it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        key = b"perfbench-calibration"
        queue: list = []
        seen: dict = {}
        logs: dict = {}
        for i in range(rounds):
            msg = _CalMsg(i % 16, i, i.to_bytes(8, "big"))
            heapq.heappush(queue, ((i * 7919) % 10007, i, msg))
            if len(queue) > 64:
                _, _, msg = heapq.heappop(queue)
                tag = hmac.new(key, msg.body, hashlib.sha256).digest()
                seen[tag] = msg.seq
                log = logs.setdefault(msg.dst, [])
                log.append((msg.seq, tag))
                if len(log) > 32:
                    logs[msg.dst] = [entry for entry in log if entry[0] % 3][-256:]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def capture_commit_times(sim) -> list[int]:
    """Stamp ``sim.now`` on every new committed entry of the reference node.

    Wraps ``drain``, ``unblock`` and ``flush_ready`` on the executor
    instance only; the class and every other node stay untouched.
    """
    executor = sim.nodes[sim.reference_node].executor
    order = executor.committed_order
    stamps: list[int] = []

    def hook(method):
        def stamped(*args, **kwargs):
            out = method(*args, **kwargs)
            now = sim.now
            while len(stamps) < len(order):
                stamps.append(now)
            return out
        return stamped

    for name in COMMIT_HOOKS:
        method = getattr(executor, name, None)
        if method is not None:
            setattr(executor, name, hook(method))
    return stamps


def commit_latencies(result, stamps: list[int]) -> list[int]:
    """Simulated ms from each command's scheduled propose until it committed."""
    interval = result.scenario.propose_interval
    return [
        stamp - interval * (entry.proposer_seq - 1)
        for entry, stamp in zip(result.reference_trace, stamps)
    ]


def measure(src: str, text: str, trace: bool) -> dict:
    sys.path.insert(0, src)
    cal_before = calibrate()
    start = time.perf_counter()
    import phalanx
    from phalanx.scenario import parse_scenario_text

    sim = phalanx.Simulation(parse_scenario_text(text))
    setup_s = time.perf_counter() - start

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(sim)
        tracer.install()
    stamps = capture_commit_times(sim)
    try:
        start = time.perf_counter()
        result = sim.run()
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_after = calibrate()

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cal_s": [cal_before, cal_after],
        "peak_rss_mib": peak_rss_mib,
        "trace_sha256": result.trace_sha256(),
        "committed": result.committed,
        "total_proposed": result.total_proposed,
        "reordered_ratio": result.reordered_ratio,
        "alter_path_ratio": result.alter_path_ratio,
        "consistency": result.consistency,
        "non_quiescent": result.non_quiescent,
        "sim_time_ms": result.sim_time_ms,
        "events": result.events_processed,
        "latencies_ms": commit_latencies(result, stamps),
    }
    if tracer is not None:
        out["layers"] = tracer.report(result)
    return out


def main() -> int:
    if len(sys.argv) != 3 or sys.argv[2] not in ("0", "1"):
        print("usage: one_run.py <src_dir> <trace 0|1> < scenario.txt", file=sys.stderr)
        return 2
    out = measure(sys.argv[1], sys.stdin.read(), sys.argv[2] == "1")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
