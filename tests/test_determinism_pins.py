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
"""

import hashlib

import pytest

from phalanx import Simulation, parse_scenario_text, run

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
        "6ba06b77d14462e282c326e092f6af903f7807c8f3243c74118c1538ca2928f6",
    ),
    "sweep16_timestamp": (
        SWEEP16.format(strategy="timestamp"),
        "f7e2213397e9101d3441e34a57869f1384471b249a85d19c626613d1c298415e",
    ),
    "sweep16_anchor": (
        SWEEP16.format(strategy="anchor"),
        "854acc90a9fcdd00c7953b1a5df9cdcf005c7aeedba9fc48c096b71dec0f1bee",
    ),
    # Alter-path sets closed under reliable order: reordered_ratio 0.
    "alter16": (
        ALTER16,
        "09d7b54ded7135b76d14e3d04778f988796b35d2c9c13c5c1e7754a59b8d75dd",
    ),
    "reverse_silent7": (
        REVERSE_SILENT7,
        "b53773a8d09cc1e944a82003ba0529a14c173da07798bac273d719f3fda7382d",
    ),
    "follow_reverse4": (
        FOLLOW_REVERSE4,
        "0451a30b5c1aff23b47a11000875b2ced0216e48fccaf97cae88c929abda207e",
    ),
    "follow7": (
        FOLLOW7,
        "06c606399d9e30c3bfd8a92c6fb5d8a7023b4f8108eb42e352fc462cc5d03689",
    ),
}

BATCH_PINS = {
    "lan_smoke": (
        LAN_SMOKE,
        "bb2608fe929a2720a3d632862cf6116e95fab9e062a6ca3617e1c02874330f98",
    ),
    "sweep16_timestamp": (
        SWEEP16.format(strategy="timestamp"),
        "ab7c01969159119b385bdf024c69bdbcc7579c253d99cc25d971b57c21a05dd0",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_sha256_pinned(name):
    text, expected = PINS[name]
    result = run(parse_scenario_text(text))
    assert not result.non_quiescent
    assert result.consistency
    assert result.trace_sha256() == expected


@pytest.mark.parametrize("name", sorted(BATCH_PINS))
def test_batch_trace_pinned(name):
    text, expected = BATCH_PINS[name]
    result = run(parse_scenario_text(text), record_batches=True)
    assert result.batch_trace
    joined = "\n".join(result.batch_trace)
    assert hashlib.sha256(joined.encode()).hexdigest() == expected


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
