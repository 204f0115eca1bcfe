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
run stops: ``sim_time_ms`` feeds throughput, so it may not move either.

The pins hold at the default pre-order window (``PRE_ORDER_WINDOW`` = 4).
The ``STOP_AND_WAIT_*`` tables hold the same pins with the window patched to
1, one own log awaiting votes at a time, at their values from before the
window existed: at that window a tick pre-orders at most one log, so every
trace and batch trace is what it was. Only ``events_processed`` moved there,
since a node that acted now sleeps until its tick can act again. Pins whose
value the window does not move are checked at both windows.
"""

import hashlib
import json
import random

import pytest

import phalanx.mempool
from phalanx import NodeBehavior, Scenario, Simulation, parse_scenario_text, run
from prop_harness import random_scenario

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
        "8e8f780baa74b9d3ffd9a7a944868fb92fc8a7c4568c3d0e66b0c4270a0abc17",
    ),
    "sweep16_timestamp": (
        SWEEP16.format(strategy="timestamp"),
        "f9cfba49861839a18bf758579617a1163ff45ad184b49b74a025e9b03352c70b",
    ),
    "sweep16_anchor": (
        SWEEP16.format(strategy="anchor"),
        "5cdcbcf9c5e100006e610340aecf4d5f9dca4842adcdcae6d908d28aeeed6b04",
    ),
    # Alter-path sets closed under reliable order: reordered_ratio 0.
    "alter16": (
        ALTER16,
        "700c667110fcd62f9a457fc7ce2427e8d24cd4e9546a7b66022a61ca8f66a159",
    ),
    "reverse_silent7": (
        REVERSE_SILENT7,
        "7d67953357917ac2052b0a3eb16ea2a8248d191db137826b84ab834a6bd3576c",
    ),
    "follow_reverse4": (
        FOLLOW_REVERSE4,
        "8241f4603d1484231c635e54c8983d45bdaf912d06a36f4df0cf0fb554103de3",
    ),
    "follow7": (
        FOLLOW7,
        "52eecb31894ec9416b9941edee53432a41f2330a4f9fb51b5c9ac14a0da375c1",
    ),
}

STOP_AND_WAIT_PINS = {
    "burst4": "6ba06b77d14462e282c326e092f6af903f7807c8f3243c74118c1538ca2928f6",
    "sweep16_timestamp": "f7e2213397e9101d3441e34a57869f1384471b249a85d19c626613d1c298415e",
    "sweep16_anchor": "854acc90a9fcdd00c7953b1a5df9cdcf005c7aeedba9fc48c096b71dec0f1bee",
    "alter16": "09d7b54ded7135b76d14e3d04778f988796b35d2c9c13c5c1e7754a59b8d75dd",
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
        "e9ba15579af9ccc044f0d582ceb36440b9265606d98b025c4d4d8b71f85fa7df",
    ),
}

STOP_AND_WAIT_BATCH_PINS = {
    "lan_smoke": "bb2608fe929a2720a3d632862cf6116e95fab9e062a6ca3617e1c02874330f98",
    "sweep16_timestamp": "ab7c01969159119b385bdf024c69bdbcc7579c253d99cc25d971b57c21a05dd0",
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

# Every result.json field of two reference scenarios, scenario echo included.
RESULT_PINS = {
    "sweep16_timestamp": {
        "alter_path_ratio": 0.0, "committed": 80,
        "consistency": True, "events_processed": 79574, "leader_faults": 0,
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.014743589743589743, "schema_version": 1,
        "sim_time_ms": 41124, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": PINS["sweep16_timestamp"][1],
        "scenario": SCENARIO_ECHO["sweep16_timestamp"],
    },
    "alter16": {
        "alter_path_ratio": 0.4444444444444444, "committed": 80,
        "consistency": True, "events_processed": 79011, "leader_faults": 0,
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.0, "schema_version": 1,
        "sim_time_ms": 41091, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": PINS["alter16"][1],
        "scenario": SCENARIO_ECHO["alter16"],
    },
}

STOP_AND_WAIT_RESULT_PINS = {
    "sweep16_timestamp": {
        "alter_path_ratio": 0.0, "committed": 80,
        "consistency": True, "events_processed": 83508, "leader_faults": 0,
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.021153846153846155, "schema_version": 1,
        "sim_time_ms": 139367, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": STOP_AND_WAIT_PINS["sweep16_timestamp"],
        "scenario": SCENARIO_ECHO["sweep16_timestamp"],
    },
    "alter16": {
        "alter_path_ratio": 0.6, "committed": 80,
        "consistency": True, "events_processed": 83567, "leader_faults": 0,
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.0, "schema_version": 1,
        "sim_time_ms": 139248, "total_proposed": 80, "uncommitted": 0,
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
        "df29d90696b9eb2d06046e33ab3a8217428abdd2ae6d95ecf55039a478ad222a",
        "fba9531aa601922abf2fcaa11d7ba15a7dfe6f6132fc43530257c0d970c2d244",
    ),
    ("anchor", 30): (
        "fff89f72ed112bda051339372b7b2871cf701f9f9b5e649a873fad1984108e5c",
        "cf28f6d496fb0f73228d406a9c332426c0ac0bb757092e2efbb0fecad219412d",
    ),
    ("timestamp", 30): (
        "baff5476f5ef2b6cc640fbbf9c61d5a9fb41e1b4eb5b7c73d54ef439eca5a674",
        "cf28f6d496fb0f73228d406a9c332426c0ac0bb757092e2efbb0fecad219412d",
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
    for window in (1, 4):
        monkeypatch.setattr(phalanx.mempool, "PRE_ORDER_WINDOW", window)
        result = run(scenario)
        assert result.non_quiescent
        assert result.sim_time_ms == sim_time_ms
