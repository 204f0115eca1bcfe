"""Full-trace determinism pins for the reference scenarios.

Each scenario's reference-node ``trace_sha256`` is pinned exactly, so a
change that claims to leave ordering untouched (a speed-up, a refactor)
must reproduce every committed byte. Four scenarios are the benchmark
workload templates, copied here so the suite does not depend on the
benchmark package; a fifth covers the ``reverse`` and ``silent``
behaviours, two more the ``follow`` control, whose every honest node
must commit the designated (lowest-id Byzantine) node's certified chain,
and one ``alter16`` with three shufflers, where anchor sets commit
same-proposer pairs out of proposal order.

``trace_sha256`` does not cover certificates, so a wrong but
self-consistent MAC would pass it. The reference node's encoded batch
trace carries every certificate's signer set and aggregate, and is pinned
too.

Two reference scenarios also pin their whole ``result.json``, so a change
that keeps the trace but moves a count (``events_processed``,
``sim_time_ms``, ``leader_faults``...) fails too. The work pins hold the
anchor executor's selections and reliable-order bits on two of them, so a
change that keeps every trace but selects more often or builds the index
where no input reads it fails as well.

The tie-break pins hold runs whose order hangs on how a node's tick ranks
against events at the same simulated time, and two run-end pins hold where a
run stops: ``sim_time_ms`` feeds throughput, so it may not move either. The
stall pins hold two runs in which a consenter stalls on a missing log and
retries its batch once the log lands.

The pins hold at the default pre-order window (``PRE_ORDER_WINDOW`` = 24),
with everything one event sends on a link carried as one transmission.
The ``STOP_AND_WAIT_*`` tables hold the same pins with the window patched to
1, one own log awaiting votes at a time. Pins whose value the window does not
move are checked at both windows.

Both tables were re-pinned once when the event order became fixed: at one
simulated time every tick runs first, in node-id order, where a node's tick
used to rank among its own source's events, as a loop ticking every grid
point had pushed it. That moved, at both windows, every pin whose run has a
tick meet another node's event at one time: the 1..1200 ms, ``reverse_silent7``
and ``follow7`` traces, the ``sweep16_timestamp`` batches, both result pins,
the tie-break pins and the ``random`` stall pin. In the same re-pin a node
began to time one own log per vote round trip, which moved the window-24
1..1200 ms pins again: their re-broadcasts fell to 0. ``burst4``,
``follow_reverse4``, the ``lan_smoke`` batches and the zero-latency,
cut-short and ``wide`` stall pins held.

When one log came to carry every command its tick pre-orders, every
batch-trace pin moved with the log encoding, and a trace moved only where
the run had fetched a log: the two ``sweep16`` traces and the ``anchor``
tie-break traces 19 and 26. Every stop-and-wait trace held, and the stall
pins were re-selected by their rule, since neither old seed stalled.

When the timestamp baseline came to fix each command's stamp at its
2f+1-th report and clamp an author's report to its latest, the timestamp
traces moved where that changes the order: ``sweep16_timestamp`` at the
default window (its result pin's ``reordered_ratio`` with it) and the
``timestamp`` tie-break trace 30 at both windows. Every anchor and follow
pin and every batch pin held. The result pins gained ``commit_latency_ms``
in the same change.

When the leader's order-batches came to carry only the heads that moved
since its last batch, with None in every other slot, the batch-trace pins
moved at both windows wherever some batch left a head unchanged: both
``BATCH_PINS``, every tie-break batch and both stall batches. Every trace,
every result pin, the zero-latency pins (none of their batches repeated an
unchanged head) and the stall pins' events and stall sets held.
"""

import hashlib
import json
import random

import pytest

import phalanx.mempool
from phalanx import NodeBehavior, Scenario, Simulation, parse_scenario_text, run
from phalanx.consensus import Consenter
from phalanx.executor import Executor
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

# ALTER16's four proposers with three shufflers that skew their stamps low:
# the shape on which in-set order inverts same-proposer pairs.
ALTER16_SHUFFLED = ALTER16 + """\
byzantine = 13:shuffle+skew:-100, 14:shuffle+skew:-100, 15:shuffle+skew:-100
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
        "69fbb1c2527ada2f9f6a9c5bd73e7e2495f725e3ace4996752b92cf9979dc2f2",
    ),
    "sweep16_anchor": (
        SWEEP16.format(strategy="anchor"),
        "0c59633580ada0562c9688156223e664e57b8c8f6b46bd327ecf4daf1d309b5c",
    ),
    # Alter-path sets closed under reliable order: reordered_ratio 0.
    "alter16": (
        ALTER16,
        "5eb45e53cc32c19bef171677dae5dc56dcc9f5a3e1e41e21b80302984dbc7c7a",
    ),
    # reordered_ratio 0.0211: same-proposer pairs inverted inside anchor sets.
    "alter16_shuffled": (
        ALTER16_SHUFFLED,
        "20d8698d336d2f4c8e6f2dd7312290d1c9c6c41ede8f59552e1fe71acf58087d",
    ),
    "reverse_silent7": (
        REVERSE_SILENT7,
        "a13e1e94293447ea6a2e30fa7384c2e9926d944e6b1cafb868722b35e4661f90",
    ),
    "follow_reverse4": (
        FOLLOW_REVERSE4,
        "10895504c569280fa09d314fadb9f175ae3cd51449cbcdbface080a2b6d997e2",
    ),
    "follow7": (
        FOLLOW7,
        "2eda66db93824f56be27abbfc78572f59c6ef11e9ac9f82c2bd4baef923fb899",
    ),
}

STOP_AND_WAIT_PINS = {
    "burst4": "6ba06b77d14462e282c326e092f6af903f7807c8f3243c74118c1538ca2928f6",
    "sweep16_timestamp": "77caae69f7cb020d55214981df07d9b49bcdefa71917f7cdd85b305dd7d17925",
    "sweep16_anchor": "409259a81d24755be59fe2af65e9ec1ef156170ee4e95bc15031e71750efe1ee",
    "alter16": "d79ff634d3b190c6f384c7f9ed323fd9263b80ead1b5fda6e6e9c80dd82fe8a6",
    "alter16_shuffled": "3ef00b00287170153e28f8ea93ab5e27532a117e46f368b20eecc79920795788",
    "reverse_silent7": "ceab53bf253d1226beceed55a22ac70c84cc74aad3742b42d5edb8e9ffd263ea",
    "follow_reverse4": "0451a30b5c1aff23b47a11000875b2ced0216e48fccaf97cae88c929abda207e",
    "follow7": "6403e429a551ff2a1d1e0af768d4a709349790288f85dfafc8b78dd6c4c15815",
}

BATCH_PINS = {
    "lan_smoke": (
        LAN_SMOKE,
        "1b7bccd58acadddfc5577bed90f1d74dc14bfb6c974e53651866b8be3ea6898f",
    ),
    "sweep16_timestamp": (
        SWEEP16.format(strategy="timestamp"),
        "0d0e846ddb1b339f8f717855836e68a51d4cfb99732db1abc3a7e42e9e5b9000",
    ),
}

STOP_AND_WAIT_BATCH_PINS = {
    "lan_smoke": "1530830654660480806b10020ac41066f5699f70103c7b8f544a28a89a0cd856",
    "sweep16_timestamp": "3aed16b6534ebc1267b6725565834b4a68cefa67a826a63d27f924be9a67848e",
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
    "reject_gap": 0,
}

# Every result.json field of two reference scenarios, scenario echo included.
RESULT_PINS = {
    "sweep16_timestamp": {
        "alter_path_ratio": 0.0, "committed": 80,
        "consistency": True, "events_processed": 22987, "leader_faults": 0,
        "rebroadcasts": 0, "rejects": NO_REJECTS, "late_votes": 1325,
        "messages": {"pre_order": 6160, "vote": 6160, "order": 5775, "fetch_log": 0},
        "commit_latency_ms": {"p50": 5840, "p99": 8440},
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.029487179487179487, "schema_version": 1,
        "sim_time_ms": 10996, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": PINS["sweep16_timestamp"][1],
        "scenario": SCENARIO_ECHO["sweep16_timestamp"],
    },
    "alter16": {
        "alter_path_ratio": 0.5384615384615384, "committed": 80,
        "consistency": True, "events_processed": 26355, "leader_faults": 0,
        "rebroadcasts": 0, "rejects": NO_REJECTS, "late_votes": 2255,
        "messages": {"pre_order": 7216, "vote": 7216, "order": 6765, "fetch_log": 0},
        "commit_latency_ms": {"p50": 6675, "p99": 8710},
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.0, "schema_version": 1,
        "sim_time_ms": 10646, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": PINS["alter16"][1],
        "scenario": SCENARIO_ECHO["alter16"],
    },
}

STOP_AND_WAIT_RESULT_PINS = {
    "sweep16_timestamp": {
        "alter_path_ratio": 0.0, "committed": 80,
        "consistency": True, "events_processed": 82271, "leader_faults": 0,
        "rebroadcasts": 0, "rejects": NO_REJECTS, "late_votes": 4400,
        "messages": {"pre_order": 20480, "vote": 20480, "order": 19200, "fetch_log": 0},
        "commit_latency_ms": {"p50": 76780, "p99": 133280},
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.01730769230769231, "schema_version": 1,
        "sim_time_ms": 139342, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": STOP_AND_WAIT_PINS["sweep16_timestamp"],
        "scenario": SCENARIO_ECHO["sweep16_timestamp"],
    },
    "alter16": {
        "alter_path_ratio": 0.5555555555555556, "committed": 80,
        "consistency": True, "events_processed": 82220, "leader_faults": 0,
        "rebroadcasts": 0, "rejects": NO_REJECTS, "late_votes": 6400,
        "messages": {"pre_order": 20480, "vote": 20480, "order": 19200, "fetch_log": 0},
        "commit_latency_ms": {"p50": 89530, "p99": 131735},
        "non_quiescent": False, "prefix_consistent": True, "reference_node": 0,
        "reordered_ratio": 0.0, "schema_version": 1,
        "sim_time_ms": 140578, "total_proposed": 80, "uncommitted": 0,
        "trace_sha256": STOP_AND_WAIT_PINS["alter16"],
        "scenario": SCENARIO_ECHO["alter16"],
    },
}

# (trace_sha256, batch-trace sha256) of random_scenario(Random(9000 + i)).
# At one time every tick runs first, in node-id order. Ranking ticks last,
# or each among its own node's events, changes every pin here.
TIE_BREAK_PINS = {
    ("anchor", 19): (
        "8a6e476d107efefc481baa05228e6ef7a8a40336be477a3ddfd0bf956e9a6078",
        "7c1a52b60257feafbfeda1f8264f9de4be8b3bc4ccefed889eebeb8bd5bf3b6b",
    ),
    ("anchor", 26): (
        "8f0c538144bd964722b1e36805b71e730b157dd0c998e108b2a4f2667e22adce",
        "7b9ac11ee54c1f79417ef69d04041d3243a0cd370a828cac91362358c15df766",
    ),
    ("anchor", 30): (
        "0846afe8c51adab2f26991026a658c816cd43605d8b6149b6a64d1fc979820d0",
        "6e8a151a83db250aa224f84d9c9256227a90df9f9187d758593b7553bdaf4589",
    ),
    ("timestamp", 30): (
        "7d53cc43c51eab0f083d294aac873c61f008ff8dbde15249d34d25b1f6f88ecc",
        "6e8a151a83db250aa224f84d9c9256227a90df9f9187d758593b7553bdaf4589",
    ),
}

STOP_AND_WAIT_TIE_BREAK_PINS = {
    ("anchor", 19): (
        "0d563f357e888e93ebce72d7671371b6859d4a3fee8d30dc275058162221c73f",
        "aec8b743394a5fe9f7038b5465f175e422833f27db5fead1015ab5bfde9c0797",
    ),
    ("anchor", 26): (
        "3f66971ed11aa5b846eee924e69521bffa7c1e8957d6a784d39bb79b00f776b8",
        "2d97e442a25b37bf2f4bee428649772c785de8a95e0f4a0ba7cd004f0b9fb450",
    ),
    ("anchor", 30): (
        "f9549422b68d1325b066834d32944d38d72df8818f40cc14fcffc57b064931b1",
        "ed497fdc9bd7f69e34e5cbcd3281cf8f83a1bc7ce868ada5b2546654bc2a7726",
    ),
    ("timestamp", 30): (
        "c2fcfe0f6b99510b6ef27bfa1af8439753e922137f0524a244ed257fcf709537",
        "ed497fdc9bd7f69e34e5cbcd3281cf8f83a1bc7ce868ada5b2546654bc2a7726",
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


# (selections, reliable-order bits), summed over every node's executor. A
# selection is one ``Executor.front_vector`` call; a bit is one command filed
# into the index. ``burst4`` commits every set on the normal path and never
# builds the index.
WORK_PINS = {"alter16": (880, 1280), "burst4": (4172, 0)}


@pytest.mark.parametrize("name", sorted(WORK_PINS))
def test_executor_work_pinned(name, monkeypatch):
    selections = []
    front_vector = Executor.front_vector
    monkeypatch.setattr(Executor, "front_vector",
                        lambda self: selections.append(1) or front_vector(self))
    sim = Simulation(parse_scenario_text(PINS[name][0]))
    assert sim.run().trace_sha256() == PINS[name][1]
    bits = sum(node.executor._next_index for node in sim.nodes)
    assert (len(selections), bits) == WORK_PINS[name]


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
    chain, seq = [], 1
    while (log := own.fetch_log(designated, seq)) is not None:
        chain.extend(log.command_digests)
        seq += 1
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
        "24c08d02fa7dc717bf185adab008ac07ac986aa983e5286853582336d6f455f3"),
    4: ("aa660b60660dff1a7477d2568c13d97de349c3ad0f2d3178383d9979058861ac",
        "7f36b0f81c61f0dd893d784be3810f0a243f6d01f39f8906b65fd1f8ecf24c84"),
    12: ("bb8a993ffdec4daa6fa01221f68f32fb69c1bca99b9e68b436ad7026ee4ca739",
         "503a2e9a0c280f5f808d335327c3fe004847bfffee9ed9279e4e2e9e57c2e917"),
    24: ("775820cfe88aeed65037258e726bc351f3829a1a1e225eb28f3ef9100c9a1c3e",
         "e2972468dab842d48c437804678f86e2a2bb1acbae6407b600f127d43ebc5d1a"),
}


def test_zero_latency_order_pinned(monkeypatch):
    # With no link latency a tick's pre-orders, their votes and the
    # certification all happen at the tick's own time, so the certification
    # wakes a node whose tick at that time has run: its next tick is the
    # grid tick after it. Queuing the current grid tick again changes this
    # order.
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
    ("wide", 7011): (
        "503840cb19fce935cb86f9035dc346ee15d28e721434eb5be2aa5c9a4645aa6c",
        "dedf2c9d35d873061cc7508d4f46b360a38af2955ffe2b55f75031a5e7f46959",
        7768, {8}, {8},
    ),
    ("random", 10070): (
        "e0b0574dc8ddb3a62e57c2d292b1bb5b1d81009b50d8a341423ec5e483690b3f",
        "7c982e42474d0375d04102970a953e1427a22f370caa58e6273501d35c6bdbb1",
        468, {6}, {6},
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
    assert result.messages["fetch_log"] > 0
    assert result.trace_sha256() == trace_pin
    assert batch_sha256(result) == batch_pin
