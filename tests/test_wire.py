"""Pinned bytes of the wire encoding, and a guard that every kind is sent.

Nothing decodes the encoding; batch dumps and perfbench's ``wire.bytes.*``
metrics read it. These pins keep its byte format fixed: a change to any
encoder shows here before it moves a batch-trace pin or a byte count.

A message kind that no run sends is code only tests exercise, so the guard
runs pinned scenarios and requires each kind of ``wire.Message`` on the
simulated wire, and a byte pin for each.
"""

import hashlib
import typing

import pytest

from phalanx import (
    Command, EMPTY_DIGEST, HmacAuthenticator, PartialOrderLog, Simulation,
    parse_scenario_text, wire,
)
from phalanx.consensus import encode_order_batch
from phalanx.wire import (
    FetchLogMessage,
    OrderMessage,
    PreOrderMessage,
    VoteMessage,
    WireError,
    encode_message,
)
from prop_harness import certify_log
from test_determinism_pins import BATCH_PINS, PINS as TRACE_PINS, STALL_PINS, stall_scenario

AUTH = HmacAuthenticator(4, 1)
COMMAND = Command.create(0, 1, b"cmd")
SECOND = Command.create(0, 2, b"cmd")


def certified_log(node_id=2, seq=1, ts=17):
    """A certified log of two commands, so the count prefix is pinned too."""
    digests = (COMMAND.digest, SECOND.digest)
    return certify_log(AUTH, PartialOrderLog.create(node_id, seq, ts, digests, EMPTY_DIGEST))


LOG = certified_log()

# kind -> (message, encoded length, sha256 of the encoding)
PINS = {
    "pre_order": (
        PreOrderMessage(LOG), 120,
        "6690a3b627f2571ef5254c8eea647122acc625b9359d1a24674bc0dd284baa73",
    ),
    "vote": (
        VoteMessage(AUTH.partial_sign(1, LOG.cur_digest)), 71,
        "8b3176d6f10d1d1fd3e6f3dc013ad2035397a7c739cdd3a946aed24fcb04b42a",
    ),
    "order": (
        OrderMessage(LOG), 196,
        "b41e531642e94768505d7ad251a00efecc75609be156abad08a155e94d1cc0a5",
    ),
    "fetch_log": (
        FetchLogMessage(3, 42), 11,
        "f650e008e111daad3f61ba9dacda75354124cba7d8a8c8fd5bf430bdb10afc4d",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINS))
def test_message_bytes_pinned(kind):
    msg, length, sha256 = PINS[kind]
    encoded = encode_message(msg)
    assert (len(encoded), hashlib.sha256(encoded).hexdigest()) == (length, sha256)


def test_pre_order_strips_certificate():
    assert encode_message(PreOrderMessage(LOG)) == encode_message(
        PreOrderMessage(LOG.without_certificate())
    )


def test_order_batch_bytes_pinned():
    logs = [certified_log(node_id=i, seq=1, ts=i) for i in range(3)]
    encoded = encode_order_batch((logs[0], None, logs[1], logs[2]))
    assert (len(encoded), hashlib.sha256(encoded).hexdigest()) == (
        591, "07bb74e89b7b63d5c38e392dc27ba977b393f888e9e2ffa402f50c44001ab4a2",
    )


def test_unknown_kind_raises():
    with pytest.raises(WireError):
        encode_message(object())


def test_every_message_kind_is_sent_and_pinned():
    scenarios = [parse_scenario_text(BATCH_PINS["lan_smoke"][0]),
                 parse_scenario_text(TRACE_PINS["reverse_silent7"][0])]
    scenarios += [stall_scenario(*key) for key in sorted(STALL_PINS)]
    sent: set[type] = set()
    for scenario in scenarios:
        sim = Simulation(scenario)
        send = sim.send

        def counted(src, dst, msg, send=send):
            sent.add(type(msg))
            send(src, dst, msg)

        sim.send = counted
        assert not sim.run().non_quiescent
    kinds = set(typing.get_args(wire.Message))
    assert sorted(k.__name__ for k in kinds - sent) == []
    assert {type(pin[0]) for pin in PINS.values()} == kinds
