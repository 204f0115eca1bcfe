"""Full-trace determinism pins for the reference scenarios.

Each scenario's reference-node ``trace_sha256`` is pinned exactly, so a
change that claims to leave ordering untouched (a speed-up, a refactor)
must reproduce every committed byte. Four scenarios are the benchmark
workload templates, copied here so the suite does not depend on the
benchmark package; a fifth covers the ``reverse`` and ``silent``
behaviours, and two more the ``follow`` control, whose every honest node
must commit the designated (lowest-id Byzantine) node's certified chain.

``trace_sha256`` does not cover certificates, so a wrong but
self-consistent MAC would pass it. The reference node's encoded batch
trace carries every certificate's signer set and aggregate, and is pinned
too.

Two reference scenarios also pin their whole ``result.json``, so a change
that keeps the trace but moves a count (``events_processed``,
``sim_time_ms``, ``leader_faults``...) fails too.

The tie-break pins hold runs whose order hangs on how a node's tick ranks
against events at the same simulated time, and two run-end pins hold where a
run stops: ``sim_time_ms`` feeds throughput, so it may not move either. The
stall pins hold two runs in which a consenter stalls on a missing log and
retries its batch once the log lands.

The pins hold at the default pre-order window (``PRE_ORDER_WINDOW`` = 24),
with everything one event sends on a link carried as one transmission.
The ``STOP_AND_WAIT_*`` tables hold the same pins with the window patched to
1, one own log awaiting votes at a time. Where no log waits for votes past
``resend_ms`` (the LAN and 10..80 ms runs) they keep their values from
before the window existed. The 1..1200 ms runs moved when the re-broadcast
timer began to follow the measured vote round trip: their re-broadcasts
fall due at other times, which moves every later latency draw. At window 1
no event sends two messages of one kind on one link, so one transmission
per link moved none of these pins. Pins whose value the window does not
move are checked at both windows.
"""

import hashlib
import json
import random

import pytest

import phalanx.mempool
from phalanx import NodeBehavior, Scenario, Simulation, parse_scenario_text, run
from phalanx.consensus import Consenter
from prop_harness import random_scenario, wide_scenario

BURST4 = """\
n = 4
f = 1
proposers = 1
commands_per_proposer = 1000
delta_o = 50
latency = lan
propose_interval = 0
strategy = anchor
byzantine = 3:shuffle
seed = 1
"""

SWEEP16 = """\
n = 16
f = 5
proposers = 2
commands_per_proposer = 40
delta_o = 20
latency = 1..1200
propose_interval = 20
strategy = {strategy}
byzantine = 11:shuffle+skew:-100, 12:shuffle+skew:-100, 13:shuffle+skew:-100, \
14:shuffle+skew:-100, 15:shuffle+skew:-100
seed = 1
"""

ALTER16 = """\
n = 16
f = 5
proposers = 4
commands_per_proposer = 20
delta_o = 20
latency = 1..1200
propose_interval = 5
strategy = anchor
seed = 9
"""

REVERSE_SILENT7 = """\
n = 7
f = 2
proposers = 2
commands_per_proposer = 30
delta_o = 50
latency = lan
propose_interval = 10
strategy = anchor
byzantine = 5:reverse, 6:silent
seed = 5
"""

FOLLOW_REVERSE4 = """\
n = 4
f = 1
proposers = 1
commands_per_proposer = 50
latency = lan
propose_interval = 0
strategy = follow
byzantine = 3:reverse
seed = 105
"""

FOLLOW7 = """\
n = 7
f = 2
proposers = 2
commands_per_proposer = 30
delta_o = 50
latency = 10..80
propose_interval = 50
strategy = follow
byzantine = 5:reverse, 6:skew:-40
seed = 103
"""

LAN_SMOKE = """\
n = 4
f = 1
proposers = 1
commands_per_proposer = 200
batch_size = 4
delta_o = 50
latency = lan
propose_interval = 50
seed = 1
strategy = anchor
"""

PINS = {
    "burst4": (
        BURST4,
        "67752f040bb379c8d5ed1d4a7d777f096b0b90af1153e56b517e6e04de165b77",
    ),
    "sweep16_timestamp": (
        SWEEP16.format(strategy="timestamp"),
        "5f50eebc46929c71ebf1c68c583d5df7be84581b5af873478f889be2c3f64f38",
    ),
    "sweep16_anchor": (
        SWEEP16.format(strategy="anchor"),
        "3665f209b89b4e06df8520f1dbdfc240c68826c1b9c5b4758f28bb480b8ced3d",
    ),
    # Alter-path sets closed under reliable order: reordered_ratio 0.
    "alter16": (
        ALTER16,
        "a884076d234d3228dfdacd1b24ad77406226c5cdafa207de4cd63578fe319cbb",
    ),
    "reverse_silent7": (
        REVERSE_SILENT7,
        "dd5ebf63c8377ced5503602dc276f213aa6454a0861ba576dd9543b7396a2362",
    ),
    "follow_reverse4": (
        FOLLOW_REVERSE4,
        "10895504c569280fa09d314fadb9f175ae3cd51449cbcdbface080a2b6d997e2",
    ),
    "follow7": (
        FOLLOW7,
        "712498e2b00b71b269bf4226e60f6d1e37279e138215091f75a19add7a3b42a2",
    ),
}

STOP_AND_WAIT_PINS = {
    "burst4": "6ba06b77d14462e282c326e092f6af903f7807c8f3243c74118c1538ca2928f6",
    "sweep16_timestamp": "8f5639fa6c3530905c8a16ea6d4ecf2da7f7bd2fa713949a1fd2ab4fed055620",
    "sweep16_anchor": "2b5656d448487624255caa0e8ef4b795fd5d2eafdb0c54e95a8fde540d855ba7",
    "alter16": "de55d883d81f458b12a148486fc5320a862691479cdc372b3cf4248f8c5873bb",
    "reverse_silent7": "b53773a8d09cc1e944a82003ba0529a14c173da07798bac273d719f3fda7382d",
    "follow_reverse4": "0451a30b5c1aff23b47a11000875b2ced0216e48fccaf97cae88c929abda207e",
    "follow7": "06c606399d9e30c3bfd8a92c6fb5d8a7023b4f8108eb42e352fc462cc5d03689",
}

BATCH_PINS = {
    "lan_smoke": (
        LAN_SMOKE,
        "846b89da34d631a26a0089cb9679d5558a03e8513810a5b2637cbc635889a3d2",
    ),
    "sweep16_timestamp": (
        SWEEP16.format(strategy="timestamp"),
        "e4c24b884e1b3e52abb147462ee8792e0bbc82b31d2377882f8067a143deaa7e",
    ),
}

STOP_AND_WAIT_BATCH_PINS = {
    "lan_smoke": "bb2608fe929a2720a3d632862cf6116e95fab9e062a6ca3617e1c02874330f98",
    "sweep16_timestamp": "00a27e223048074ef4519173de2e99f0f840c31e55ec4a4895aa3da1f6cf3ac8",
}


SCENARIO_ECHO = {
    "sweep16_timestamp": {
        "batch_size": 4,
        "byzantine": {str(i): "shuffle+skew:-100" for i in range(11, 16)},
        "commands_per_proposer": 40, "delta_o": 20, "f": 5, "latency": [1, 1200],
        "max_sim_ms": 600000, "n": 16, "propose_interval": 20, "proposers": 2,
        "resend_ms": 2000, "seed": 1, "strategy": "timestamp",
    },
    "alter16": {
        "batch_size": 4, "byzantine": {},
        "commands_per_proposer": 20, "delta_o": 20, "f": 5, "latency": [1, 1200],
        "max_sim_ms": 600000, "n": 16, "propose_interval": 5, "proposers": 4,
        "resend_ms": 2000, "seed": 9, "strategy": "anchor",
    },
}

# result.json's ``rejects`` with every reason at zero.
NO_REJECTS = {
    "chain_break": 0, "duplicate_command": 0, "invalid_cert": 0, "invalid_partial": 0,
    "reject_bad_author": 0, "reject_bad_digest": 0, "reject_equivocation": 0,
    "reject_gap": 0, "stale_vote": 0,
}

# Every result.json field of two reference scenarios, scenario echo included.
RESULT_PINS = {
    "sweep16_timestamp": {
        "alter_path_ratio": 0.0, "committed": 80,
        "consistency": True, "events_processed": 22894, "leader_faults": 0,
        "rebroadcasts": 14,
        "rejects": {**NO_REJECTS, "stale_vote": 4610},
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.016025641025641024, "schema_version": 1,
        "sim_time_ms": 11869, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": PINS["sweep16_timestamp"][1],
        "scenario": SCENARIO_ECHO["sweep16_timestamp"],
    },
    "alter16": {
        "alter_path_ratio": 0.43478260869565216, "committed": 80,
        "consistency": True, "events_processed": 26987, "leader_faults": 0,
        "rebroadcasts": 17,
        "rejects": {**NO_REJECTS, "stale_vote": 6655},
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.0, "schema_version": 1,
        "sim_time_ms": 10683, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": PINS["alter16"][1],
        "scenario": SCENARIO_ECHO["alter16"],
    },
}

STOP_AND_WAIT_RESULT_PINS = {
    "sweep16_timestamp": {
        "alter_path_ratio": 0.0, "committed": 80,
        "consistency": True, "events_processed": 82305, "leader_faults": 0,
        "rebroadcasts": 0,
        "rejects": {**NO_REJECTS, "stale_vote": 4400},
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.019230769230769232, "schema_version": 1,
        "sim_time_ms": 139458, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": STOP_AND_WAIT_PINS["sweep16_timestamp"],
        "scenario": SCENARIO_ECHO["sweep16_timestamp"],
    },
    "alter16": {
        "alter_path_ratio": 0.5217391304347826, "committed": 80,
        "consistency": True, "events_processed": 82371, "leader_faults": 0,
        "rebroadcasts": 2,
        "rejects": {**NO_REJECTS, "stale_vote": 6430},
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.0, "schema_version": 1,
        "sim_time_ms": 140315, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": STOP_AND_WAIT_PINS["alter16"],
        "scenario": SCENARIO_ECHO["alter16"],
    },
}

# (trace_sha256, batch-trace sha256) of random_scenario(Random(9000 + i)).
# Ranking a node's tick after every event it sent for the same time, or
# giving a tick scheduled late a fresh place in the tie-break, changes each
# stop-and-wait pin.
TIE_BREAK_PINS = {
    ("anchor", 19): (
        "611762198f092280af4ee163564c21059d9eb4eac0a72eb81ee004eb971875f1",
        "4eb4cf842fcee73e9bb09cfe086ad5ee6099ef272843b76b07eaa06f957c5a24",
    ),
    ("anchor", 26): (
        "f371a3c7e5e237f9c0d542c44d34237e222714aecf570d8c51f0ae37fe19ad46",
        "8eae1142717932d1d3bd8e1218bd6f2b83088a38110a5168fa0492ebf5f6db5b",
    ),
    ("anchor", 30): (
        "0d13804bf04c86065accfc3fe5d1b42c5281b3766130efa1562c8ca2820ce972",
        "17dfec356952135f8b8b491f6e4be47cded44499a4e9c87eb7dcf017684c7ce9",
    ),
    ("timestamp", 30): (
        "a7d405ec0bb819684a7879542e8cb9d0cf487d21baceba764c25307e7e3efba3",
        "17dfec356952135f8b8b491f6e4be47cded44499a4e9c87eb7dcf017684c7ce9",
    ),
}

STOP_AND_WAIT_TIE_BREAK_PINS = {
    ("anchor", 19): (
        "01894b2287dc79e20b597f10ac77013653e4a552c164581c92f8e605254d3f9e",
        "c45cee85121433014070a8f2e6848ac4efbc28f982df9ca969b3f005799a79e3",
    ),
    ("anchor", 26): (
        "a95610dc30e0ffc6c44b56e489addd32a6c04511b8a2c659630cd4aaeaf5d557",
        "144a61ec0108f3cb2a45e544d81f88e40eeccb4fd80e5fd7c7bf6f7ffaaba6b5",
    ),
    ("anchor", 30): (
        "0380740382b82ea010228db4385a1bdd774e7f1ef68f3b8064341419dd39db9c",
        "b84af6fca8b5878a302a68ad13c678e15afb058b3badc4c39f324416be6bf21b",
    ),
    ("timestamp", 30): (
        "ca67e5bdfbd086a553278d8e48d8d8944579beb7bb6f96720f84ef7328f9a226",
        "b84af6fca8b5878a302a68ad13c678e15afb058b3badc4c39f324416be6bf21b",
    ),
}

TIE_BREAK_IDS = [f"{s}-{i}" for s, i in sorted(TIE_BREAK_PINS)]


@pytest.fixture
def stop_and_wait(monkeypatch):
    """One own log awaiting votes at a time, as before the pre-order window."""
    monkeypatch.setattr(phalanx.mempool, "PRE_ORDER_WINDOW", 1)


def check_trace(text, expected):
    result = run(parse_scenario_text(text))
    assert not result.non_quiescent
    assert result.consistency
    assert result.trace_sha256() == expected


def batch_sha256(result):
    assert result.batch_trace
    return hashlib.sha256("\n".join(result.batch_trace).encode()).hexdigest()


def check_tie_break(strategy, index, pins):
    trace_pin, batch_pin = pins
    result = run(random_scenario(random.Random(9000 + index), strategy),
                 record_batches=True)
    assert not result.non_quiescent
    assert result.trace_sha256() == trace_pin
    assert batch_sha256(result) == batch_pin


@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_sha256_pinned(name):
    check_trace(*PINS[name])


@pytest.mark.parametrize("name", sorted(STOP_AND_WAIT_PINS))
def test_trace_sha256_pinned_stop_and_wait(name, stop_and_wait):
    check_trace(PINS[name][0], STOP_AND_WAIT_PINS[name])


@pytest.mark.parametrize("name", sorted(BATCH_PINS))
def test_batch_trace_pinned(name):
    text, expected = BATCH_PINS[name]
    assert batch_sha256(run(parse_scenario_text(text), record_batches=True)) == expected


@pytest.mark.parametrize("name", sorted(STOP_AND_WAIT_BATCH_PINS))
def test_batch_trace_pinned_stop_and_wait(name, stop_and_wait):
    result = run(parse_scenario_text(BATCH_PINS[name][0]), record_batches=True)
    assert batch_sha256(result) == STOP_AND_WAIT_BATCH_PINS[name]


@pytest.mark.parametrize("name", sorted(RESULT_PINS))
def test_result_json_pinned(name):
    result = run(parse_scenario_text(PINS[name][0]))
    assert json.loads(result.to_json()) == RESULT_PINS[name]


@pytest.mark.parametrize("name", sorted(STOP_AND_WAIT_RESULT_PINS))
def test_result_json_pinned_stop_and_wait(name, stop_and_wait):
    result = run(parse_scenario_text(PINS[name][0]))
    assert json.loads(result.to_json()) == STOP_AND_WAIT_RESULT_PINS[name]


def test_idle_nodes_skip_their_ticks():
    # A node awaiting votes, or with nothing queued, sleeps instead of ticking
    # every delta_o; ticking every node every delta_o takes 191,637 events here.
    result = run(parse_scenario_text(PINS["sweep16_timestamp"][0]))
    assert result.events_processed <= 100_000


@pytest.mark.parametrize("name", ["follow_reverse4", "follow7"])
def test_follow_traces_are_the_designated_chain(name):
    scenario = parse_scenario_text(PINS[name][0])
    sim = Simulation(scenario)
    result = sim.run()
    designated = min(scenario.byzantine)
    own = sim.nodes[designated].mempool
    chain = []
    while (log := own.fetch_log(designated, len(chain) + 1)) is not None:
        chain.append(log.command_digest)
    assert chain
    for node_id in scenario.honest_ids():
        assert [entry.digest for entry in result.traces[node_id]] == chain


@pytest.mark.parametrize("strategy, index", sorted(TIE_BREAK_PINS), ids=TIE_BREAK_IDS)
def test_tie_break_order_pinned(strategy, index):
    check_tie_break(strategy, index, TIE_BREAK_PINS[strategy, index])


@pytest.mark.parametrize("strategy, index", sorted(STOP_AND_WAIT_TIE_BREAK_PINS),
                         ids=TIE_BREAK_IDS)
def test_tie_break_order_pinned_stop_and_wait(strategy, index, stop_and_wait):
    check_tie_break(strategy, index, STOP_AND_WAIT_TIE_BREAK_PINS[strategy, index])


# (trace_sha256, batch-trace sha256) of the zero-latency run, by window.
ZERO_LATENCY_PINS = {
    1: ("53f2af06f8b48a630715a562233096531ef16100b9c5f57630618423c60982c3",
        "0a5521901630b268585fe2935254f5b0914e62bc4fb2cf22c7e927838f4441d9"),
    4: ("aa660b60660dff1a7477d2568c13d97de349c3ad0f2d3178383d9979058861ac",
        "950544375acc2e7c29d9ecb2039a51cac06c3d5e0310d5a967cf5a578aac337e"),
    12: ("bb8a993ffdec4daa6fa01221f68f32fb69c1bca99b9e68b436ad7026ee4ca739",
         "2b4d3aa55219db8cdb02b64b40f7764442a0baf880ee1c3459c5af3b3523c1d5"),
    24: ("775820cfe88aeed65037258e726bc351f3829a1a1e225eb28f3ef9100c9a1c3e",
         "0d00bdb8e0997f15297b581db1ebefe2a0a2a52fab70a4f9432d27f9b8e22499"),
}


def test_zero_latency_order_pinned(monkeypatch):
    # With no link latency an event can be handled after a node's tick at the
    # same time yet carry a smaller heap key than the tick: judging whether
    # that tick has run by the current event's key alone changes this order.
    for window, pins in ZERO_LATENCY_PINS.items():
        monkeypatch.setattr(phalanx.mempool, "PRE_ORDER_WINDOW", window)
        result = run(Scenario(n=4, f=1, proposers=2, commands_per_proposer=10,
                              delta_o=20, latency=(0, 0), propose_interval=0),
                     record_batches=True)
        assert result.committed == 20
        assert (result.trace_sha256(), batch_sha256(result)) == pins


@pytest.mark.parametrize("scenario, sim_time_ms", [
    (Scenario(n=4, f=1, latency=(1, 300), max_sim_ms=900, seed=1,
              byzantine={1: NodeBehavior(shuffle=True)}), 900),
    # Two silent nodes of four: no log is certified, every live node waits on
    # a re-broadcast timer, and silent node 2 has the last grid tick, 4025.
    (Scenario(n=4, f=1, commands_per_proposer=5, max_sim_ms=4030, seed=5,
              byzantine={2: NodeBehavior(silent=True), 3: NodeBehavior(silent=True)}),
     4025),
], ids=["shuffle", "silent-pair"])
def test_cut_short_run_ends_at_the_last_tick(scenario, sim_time_ms, monkeypatch):
    # Cut at max_sim_ms while nodes still wait: the run's clock stops at the
    # last grid tick any node, silent or not, has at or before the limit.
    for window in (1, 4, 12, 24):
        monkeypatch.setattr(phalanx.mempool, "PRE_ORDER_WINDOW", window)
        result = run(scenario)
        assert result.non_quiescent
        assert result.sim_time_ms == sim_time_ms


# Runs in which consenters stall on a missing log, fetch it and retry the
# stalled batch when it lands, at the default window; in each, one stalled
# node also buffers a later batch behind its stall. No stalled node is the
# reference node, so consistency and events_processed are pinned as well.
# Each seed is the lowest from 7000 (wide) or 9000 (random) whose run
# stalls exactly one consenter, which also buffers a batch behind its stall.
# (generator, seed) -> (trace_sha256, batch-trace sha256, events_processed,
# stalled nodes, nodes with a batch buffered behind a stall)
STALL_SCENARIOS = {"wide": wide_scenario, "random": random_scenario}
STALL_PINS = {
    ("wide", 7045): (
        "ba1e40d42b3ff461f1e8968b43b8053d6b299bce98c5fa3be7fc45455fe608b5",
        "f154dd81e94281a167ee4fbed09e924143f4574d6731808d22eb832a71d8274f",
        262, {2}, {2},
    ),
    ("random", 9638): (
        "6ace0442b50ce242b38fc19dfc2d043b86a4ac82c167d17a1306fa7a2b35058e",
        "b00d580390b1fe219ef77696e592ce5058bc34d3bc61ea0fa01ec43cc696c294",
        597, {2}, {2},
    ),
}


def stall_scenario(generator, seed):
    return STALL_SCENARIOS[generator](random.Random(seed))


def record_stalls(monkeypatch):
    """Nodes whose consenter reported a gap, nodes that got a batch while
    stalled, and nodes whose consenter committed a buffered batch as soon as
    a fetched log landed."""
    stalled, behind, retried = set(), set(), set()
    on_delivered, on_log_stored = Consenter.on_delivered, Consenter.on_log_stored

    def delivered(consenter, index, batch):
        if consenter.blocked:
            behind.add(consenter.node_id)
        missing = on_delivered(consenter, index, batch)
        if missing:
            stalled.add(consenter.node_id)
        return missing

    def stored(consenter, author, seq):
        pending = consenter.pending_batches
        missing = on_log_stored(consenter, author, seq)
        if missing:
            stalled.add(consenter.node_id)
        if consenter.pending_batches < pending:
            retried.add(consenter.node_id)
        return missing

    monkeypatch.setattr(Consenter, "on_delivered", delivered)
    monkeypatch.setattr(Consenter, "on_log_stored", stored)
    return stalled, behind, retried


@pytest.mark.parametrize("generator, seed", sorted(STALL_PINS),
                         ids=[f"{g}-{i}" for g, i in sorted(STALL_PINS)])
def test_stalled_batch_retried_when_its_log_lands(generator, seed, monkeypatch):
    trace_pin, batch_pin, events, stalled_pin, behind_pin = STALL_PINS[generator, seed]
    stalled, behind, retried = record_stalls(monkeypatch)
    result = run(stall_scenario(generator, seed), record_batches=True)
    assert (stalled, behind) == (stalled_pin, behind_pin)
    assert retried == stalled  # each stall ends when its last log lands
    assert result.reference_node not in stalled
    assert not result.non_quiescent
    assert result.consistency
    assert result.events_processed == events
    assert result.trace_sha256() == trace_pin
    assert batch_sha256(result) == batch_pin
