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

The pins hold at the default pre-order window (``PRE_ORDER_WINDOW`` = 12).
The ``STOP_AND_WAIT_*`` tables hold the same pins with the window patched to
1, one own log awaiting votes at a time. Where no log waits for votes past
``resend_ms`` (the LAN and 10..80 ms runs) they keep their values from
before the window existed. The 1..1200 ms runs moved when the re-broadcast
timer began to follow the measured vote round trip: their re-broadcasts
fall due at other times, which moves every later latency draw. Pins whose
value the window does not move are checked at both windows.
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
        "737afce12f0f75631c5ae31b0067551240c74e1a64fb00d28230b3a558371b48",
    ),
    "sweep16_timestamp": (
        SWEEP16.format(strategy="timestamp"),
        "873f5c0fe1adffdf1fdec018ca264f5e6ece3e4d3a3778b8ecb9d2f487ece298",
    ),
    "sweep16_anchor": (
        SWEEP16.format(strategy="anchor"),
        "55b8410b4886511db61c0420eb754dd330cae9c3094f3a3967b4251f6066e18d",
    ),
    # Alter-path sets closed under reliable order: reordered_ratio 0.
    "alter16": (
        ALTER16,
        "ebeb093015a0c4218ef39bf71708f5c07ac3cee9fc5d599702aa7cd593d0f42f",
    ),
    "reverse_silent7": (
        REVERSE_SILENT7,
        "7f84b6fdd3129a152ee2fa8ef2226d22f7d3526be1de44d638379e5e929f6247",
    ),
    "follow_reverse4": (
        FOLLOW_REVERSE4,
        "86020a6cf8fc8f4cd207116b717602783be7b8ca4d2541b651875788024f3d25",
    ),
    "follow7": (
        FOLLOW7,
        "3644fa002f50dc9947a4a30e9e57aac72e855682433e552b68a43d714baf240e",
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
        "7a1346f493ee3743c4e479e5b8ed5001b4b420c88ab05456b9fb53d13ad0aee1",
    ),
    "sweep16_timestamp": (
        SWEEP16.format(strategy="timestamp"),
        "a1f230e75f2bb7a7454eefba34b387250cce0dc56571a2b08f79b423337f4103",
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
        "consistency": True, "events_processed": 69666, "leader_faults": 0,
        "rebroadcasts": 1,
        "rejects": {**NO_REJECTS, "stale_vote": 4415},
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.01858974358974359, "schema_version": 1,
        "sim_time_ms": 17237, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": PINS["sweep16_timestamp"][1],
        "scenario": SCENARIO_ECHO["sweep16_timestamp"],
    },
    "alter16": {
        "alter_path_ratio": 0.48148148148148145, "committed": 80,
        "consistency": True, "events_processed": 69917, "leader_faults": 0,
        "rebroadcasts": 3,
        "rejects": {**NO_REJECTS, "stale_vote": 6445},
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.0, "schema_version": 1,
        "sim_time_ms": 16979, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": PINS["alter16"][1],
        "scenario": SCENARIO_ECHO["alter16"],
    },
}

STOP_AND_WAIT_RESULT_PINS = {
    "sweep16_timestamp": {
        "alter_path_ratio": 0.0, "committed": 80,
        "consistency": True, "events_processed": 82320, "leader_faults": 0,
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
        "consistency": True, "events_processed": 82386, "leader_faults": 0,
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
        "a8a4c03a2b2febef95ea57e993c6fd4ec0e715462ab8a1b8aa3eeb807a5dcb30",
        "ff7dd0458142c9c1a6fad170875294f9f5305ebafe939f1a14b8ec0ff2c0788e",
    ),
    ("anchor", 26): (
        "f85ab8b659c364c9d6a03db036bddca52252c73a6da7a7a4add3f43fc40dcfb1",
        "5220adb4f2bd3cb6ac2d3ae5cfc08e6fdd2e20d376f64cb399913b10ea155cba",
    ),
    ("anchor", 30): (
        "42f7c3d35da1d45b94195b0329e67a9e85e0d80ea15087137735083c7861e4ec",
        "8c64624d9add7d388adbde8ec801f4b8194af3d6fc4175cb9d3573f0288a24fb",
    ),
    ("timestamp", 30): (
        "1276e087b46dd77aad7a325ff3452fb6f50deb4a805d8e6997986baef3f8adba",
        "8c64624d9add7d388adbde8ec801f4b8194af3d6fc4175cb9d3573f0288a24fb",
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
    for window in (1, 4, 12):
        monkeypatch.setattr(phalanx.mempool, "PRE_ORDER_WINDOW", window)
        result = run(scenario)
        assert result.non_quiescent
        assert result.sim_time_ms == sim_time_ms


# Runs in which consenters stall on a missing log, fetch it and retry the
# stalled batch when it lands, at the default window; in each, one stalled
# node also buffers a later batch behind its stall. No stalled node is the
# reference node, so consistency and events_processed are pinned as well.
# (generator, seed) -> (trace_sha256, batch-trace sha256, events_processed,
# stalled nodes, nodes with a batch buffered behind a stall)
STALL_SCENARIOS = {"wide": wide_scenario, "random": random_scenario}
STALL_PINS = {
    ("wide", 7144): (
        "9362b7d9940ef876bba213d7a64436777493d53aa0dacad49b69dccd33c9aa36",
        "9e6e8da69aa72822a5c77781ec388c1a6b907a1f228c8e13b6ab8510a45be2f0",
        631, {3}, {3},
    ),
    ("random", 9252): (
        "777aa2ece21b8c568cb854456a5250aec4ae097833b183dacbf0b132a0bc9f35",
        "270b8c2a98b17a30cf3c406afa6322bf4616235c15d635e1f24b4d822832cb2c",
        3082, {4}, {4},
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
