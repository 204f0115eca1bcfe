"""Shared machinery for randomized protocol-invariant checking, and the
tests' one way to certify a hand-built log.

Runs a scenario, then audits the final cluster state against the
protocol's structural guarantees:

  a. all honest committed traces are identical;
  b. no two verifying logs share (author, seq) with different digests,
     across every node's store;
  c. every committed command is supported by at least 2f+1 logs;
  d. consecutive anchor commands are reliably ordered (brute-forced over
     the final log tables, independently of the executor's own check);
  e. pairs ordered unanimously by every declaring node commit in that
     order; and no proposed command is left uncommitted at quiescence.

A ``ProtocolInvariantError`` raised during the run is reported as a
failure, not propagated.
"""

from __future__ import annotations

import random

from phalanx import (
    EMPTY_DIGEST, NodeBehavior, PartialOrderLog, ProtocolInvariantError, Scenario, Simulation,
)
from phalanx.scenario import ANCHOR


def certify_log(auth, log: PartialOrderLog) -> PartialOrderLog:
    """``log`` with a certificate aggregated from the shares of signers 0..2f."""
    shares = [auth.partial_sign(s, log.cur_digest) for s in range(auth.quorum)]
    return log.with_certificate(auth.aggregate(log.cur_digest, shares))


def certified_chain(auth, author: int, entries) -> list[PartialOrderLog]:
    """Certified, hash-chained logs of ``author``, one command each, one per
    (command, timestamp)."""
    logs, prev = [], EMPTY_DIGEST
    for seq, (command, ts) in enumerate(entries, start=1):
        log = PartialOrderLog.create(author, seq, ts, (command.digest,), prev)
        logs.append(certify_log(auth, log))
        prev = logs[-1].cur_digest
    return logs


def random_scenario(rng: random.Random, strategy: str = ANCHOR) -> Scenario:
    n = rng.choice([4, 7, 10])
    f = (n - 1) // 3
    byz_count = rng.randint(0, f)
    byzantine = {}
    # Node 0 hosts the sequencer stand-in; Byzantine roles go elsewhere.
    for node_id in rng.sample(range(1, n), byz_count):
        kind = rng.choice(["shuffle", "reverse", "silent", "skew", "shuffle_skew"])
        if kind == "shuffle":
            byzantine[node_id] = NodeBehavior(shuffle=True)
        elif kind == "reverse":
            byzantine[node_id] = NodeBehavior(reverse=True)
        elif kind == "silent":
            byzantine[node_id] = NodeBehavior(silent=True)
        elif kind == "skew":
            byzantine[node_id] = NodeBehavior(skew=rng.choice([-200, -50, 60, 150]))
        else:
            byzantine[node_id] = NodeBehavior(shuffle=True, skew=rng.choice([-120, 80]))
    return Scenario(
        n=n,
        f=f,
        proposers=rng.choice([1, 2]),
        commands_per_proposer=rng.randint(8, 25),
        batch_size=rng.choice([1, 4]),
        delta_o=rng.choice([20, 50]),
        latency=rng.choice([(1, 5), (5, 60), (40, 150)]),
        propose_interval=rng.choice([0, 20, 50]),
        seed=rng.getrandbits(48),
        strategy=strategy,
        byzantine=byzantine,
    )


def wide_scenario(rng: random.Random, strategy: str = ANCHOR) -> Scenario:
    """Wider ordering dimensions than :func:`random_scenario`.

    Up to 16 nodes, 4 racing proposers, 5 ms proposal spacing and
    1..1200 ms links: the regime where alter-path anchor sets form.
    Byzantine roles still avoid node 0, which hosts the sequencer stand-in.
    """
    n = rng.choice([4, 7, 10, 16])
    f = (n - 1) // 3
    byzantine = {}
    for node_id in rng.sample(range(1, n), rng.randint(0, f)):
        kind = rng.choice(["shuffle", "reverse", "silent", "skew"])
        if kind == "shuffle":
            byzantine[node_id] = NodeBehavior(shuffle=True)
        elif kind == "reverse":
            byzantine[node_id] = NodeBehavior(reverse=True)
        elif kind == "silent":
            byzantine[node_id] = NodeBehavior(silent=True)
        else:
            byzantine[node_id] = NodeBehavior(skew=rng.choice([-200, 150]))
    return Scenario(
        n=n,
        f=f,
        proposers=rng.choice([1, 2, 4]),
        commands_per_proposer=rng.randint(8, 20),
        delta_o=rng.choice([20, 50]),
        latency=rng.choice([(1, 5), (40, 150), (1, 1200)]),
        propose_interval=rng.choice([0, 5, 20]),
        seed=rng.getrandbits(48),
        strategy=strategy,
        byzantine=byzantine,
    )


def collect_log_tables(sim: Simulation) -> dict[int, dict[bytes, tuple[int, int]]]:
    """Union of certified logs across all stores: author -> command digest ->
    position (seq, k), the log's seq and the command's index k in it.

    Raises AssertionError if two verifying logs conflict on (author, seq).
    """
    slots: dict[tuple[int, int], bytes] = {}
    tables: dict[int, dict[bytes, tuple[int, int]]] = {}
    for node in sim.nodes:
        for (author, seq), log in node.mempool.log_store.items():
            prior = slots.get((author, seq))
            if prior is None:
                slots[(author, seq)] = log.cur_digest
            elif prior != log.cur_digest:
                raise AssertionError(
                    f"two verifying logs share author={author} seq={seq}"
                )
            positions = tables.setdefault(author, {})
            for k, digest in enumerate(log.command_digests):
                positions[digest] = (seq, k)
    return tables


def reliable_precedes_brute(tables, f: int, first: bytes, second: bytes) -> bool:
    believers = 0
    for positions in tables.values():
        a, b = positions.get(first), positions.get(second)
        if a is not None and b is not None and a < b:
            believers += 1
    return believers >= f + 1


def check_invariants(scenario: Scenario) -> list[str]:
    """Run the scenario and return a list of violated invariants (empty = clean)."""
    sim = Simulation(scenario)
    try:
        result = sim.run()
    except ProtocolInvariantError as exc:
        return [f"protocol invariant broken: {exc}"]
    failures: list[str] = []
    f = scenario.f

    if result.non_quiescent:
        failures.append("run did not quiesce")
    if not result.consistency:
        failures.append("honest traces diverge")

    try:
        tables = collect_log_tables(sim)
    except AssertionError as exc:
        failures.append(str(exc))
        tables = {}

    for node in sim.nodes:
        if node.mempool.rejects["chain_break"]:
            failures.append(f"node {node.node_id} flagged a chain break")

    reference = sim.nodes[sim.reference_node]
    executor = reference.executor
    quorum = 2 * f + 1

    if result.uncommitted:
        failures.append(f"{result.uncommitted} commands uncommitted at quiescence")

    for entry in result.reference_trace:
        support = executor.command_infos[entry.digest].support
        if support < quorum:
            failures.append(
                f"committed {entry.digest.hex()[:8]} with support {support} < {quorum}"
            )

    if tables:
        anchors = [e for e in result.reference_trace if e.path_tag != "-"]
        for prev, cur in zip(anchors, anchors[1:]):
            if not reliable_precedes_brute(tables, f, prev.digest, cur.digest):
                failures.append(
                    f"anchors {prev.digest.hex()[:8]} -> {cur.digest.hex()[:8]} "
                    "lack reliable ordering"
                )

        position = {e.digest: e.index for e in result.reference_trace}
        committed = list(position)
        for i, first in enumerate(committed):
            for second in committed[i + 1:]:
                agree_first = agree_second = 0
                for positions in tables.values():
                    a, b = positions.get(first), positions.get(second)
                    if a is None or b is None:
                        continue
                    if a < b:
                        agree_first += 1
                    else:
                        agree_second += 1
                if agree_first and not agree_second:
                    if position[first] > position[second]:
                        failures.append(
                            f"unanimous order {first.hex()[:8]} < {second.hex()[:8]} inverted"
                        )
                elif agree_second and not agree_first:
                    if position[second] > position[first]:
                        failures.append(
                            f"unanimous order {second.hex()[:8]} < {first.hex()[:8]} inverted"
                        )
    return failures
