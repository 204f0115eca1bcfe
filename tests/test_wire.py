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


def certified_log(node_id=2, seq=1, ts=17):
    return certify_log(AUTH, PartialOrderLog.create(node_id, seq, ts, COMMAND.digest, EMPTY_DIGEST))


LOG = certified_log()

# kind -> (message, encoded length, sha256 of the encoding)
PINS = {
    "pre_order": (
        PreOrderMessage(LOG), 84,
        "01fbb77c59d2944dee8e43f5e82450023930af0dc6cd4d9d2dcdbdaa2b90c167",
    ),
    "vote": (
        VoteMessage(AUTH.partial_sign(1, LOG.cur_digest)), 71,
        "9da0966b029a37810d8339a80449f001c7941eb99e3ce1f8629573ccc245ff43",
    ),
    "order": (
        OrderMessage(LOG), 160,
        "a733768b8a473785a39fe47ec7019bebcb68775bc534385f09f1373f43085838",
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
        483, "0966e2a4bdcfafcb4944b1e9c802836d7892b04ab96551dd164b599c22fbd887",
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
