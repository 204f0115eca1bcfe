"""The benchmark's workloads: scenario templates and the seeds each run uses.

Every workload is an open loop: proposers send on a fixed simulated
schedule whatever the commits do, and simulated events fire exactly on
time, so the generator never runs late. Message delay is uniform per link
with FIFO delivery per link.

A run simulates the workload's reference scenario (the seed in
``reference_seed``) plus ``scenarios - 1`` held-out scenarios whose seeds
are drawn from the benchmark's ``--seed``. Pooling several scenarios keeps
the simulated metrics of one run steady across ``--seed`` values while a
claim can still be re-checked on seeds it was not tuned on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

@dataclass(frozen=True)
class Workload:
    name: str
    template: str  # scenario-file text without the seed line
    reference_seed: int
    scenarios: int  # scenarios per run, the reference one included
    why: str

    def seeds(self, seed: int) -> list[int]:
        """Scenario seeds of one run: the reference seed, then held-out ones."""
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        return [self.reference_seed] + [
            rng.randrange(1_000, 2**31) for _ in range(self.scenarios - 1)
        ]

    def scenario_text(self, scenario_seed: int) -> str:
        return f"{self.template}seed = {scenario_seed}\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="burst4",
            template="""\
n = 4
f = 1
proposers = 1
commands_per_proposer = 1000
delta_o = 50
latency = lan
propose_interval = 0
strategy = anchor
byzantine = 3:shuffle
""",
            reference_seed=1,
            scenarios=4,
            why="1000-command burst on 4 nodes with one shuffler: deep Byzantine "
                "queue reshuffled every tick, large mempool and executor state",
        ),
        Workload(
            name="sweep16_timestamp",
            template="""\
n = 16
f = 5
proposers = 2
commands_per_proposer = 40
delta_o = 20
latency = 1..1200
propose_interval = 20
strategy = timestamp
byzantine = 11:shuffle+skew:-100, 12:shuffle+skew:-100, 13:shuffle+skew:-100, \
14:shuffle+skew:-100, 15:shuffle+skew:-100
""",
            reference_seed=1,
            scenarios=3,
            why="16-node adversary-sweep traffic with f shufflers, ordered by the "
                "timestamp baseline: ticks and batch verification dominate, measures "
                "tsorder; no-change control for executor work",
        ),
        Workload(
            name="alter16",
            template="""\
n = 16
f = 5
proposers = 4
commands_per_proposer = 20
delta_o = 20
latency = 1..1200
propose_interval = 5
strategy = anchor
""",
            reference_seed=9,
            scenarios=1,
            why="honest 16 nodes, 4 racing proposers: the executor alter path "
                "dominates; pinned to the seed-9 reorder defect repro",
        ),
    )
}
