"""Pinned bytes of the wire encoding.

Nothing decodes the encoding; batch dumps and perfbench's ``wire.bytes.*``
metrics read it. These pins keep its byte format fixed: a change to any
encoder shows here before it moves a batch-trace pin or a byte count.
"""

import hashlib

import pytest

from phalanx import Command, EMPTY_DIGEST, HmacAuthenticator, PartialOrderLog
from phalanx.consensus import encode_order_batch
from phalanx.wire import (
    FetchCommandMessage,
    FetchCommandResponse,
    FetchLogMessage,
    FetchLogResponse,
    OrderMessage,
    PreOrderMessage,
    VoteMessage,
    WireError,
    encode_message,
)

AUTH = HmacAuthenticator(4, 1)
COMMAND = Command.create(0, 1, b"cmd")


def certified_log(node_id=2, seq=1, ts=17):
    log = PartialOrderLog.create(node_id, seq, ts, COMMAND.digest, EMPTY_DIGEST)
    shares = [AUTH.partial_sign(s, log.cur_digest) for s in range(3)]
    return log.with_certificate(AUTH.aggregate(log.cur_digest, shares))


LOG = certified_log()

# kind -> (message, encoded length, sha256 of the encoding)
PINS = {
    "pre_order": (
        PreOrderMessage(LOG), 84,
        "01fbb77c59d2944dee8e43f5e82450023930af0dc6cd4d9d2dcdbdaa2b90c167",
    ),
    "vote": (
        VoteMessage(LOG.cur_digest, AUTH.partial_sign(1, LOG.cur_digest)), 103,
        "bbc13ef1dddc6ef2ce58974d8e493608179719f01bc1222a592262f401f9880b",
    ),
    "order": (
        OrderMessage(LOG), 160,
        "a733768b8a473785a39fe47ec7019bebcb68775bc534385f09f1373f43085838",
    ),
    "fetch_log": (
        FetchLogMessage(3, 42), 11,
        "f650e008e111daad3f61ba9dacda75354124cba7d8a8c8fd5bf430bdb10afc4d",
    ),
    "fetch_resp": (
        FetchLogResponse(LOG), 160,
        "4e50d13b47091c3551f10df92cf948c05cfde02d22a6adbe7af14452443555f5",
    ),
    "fetch_cmd": (
        FetchCommandMessage(COMMAND.digest), 33,
        "a08759645c66710a5b00959e5696b736f1e5411f95a12f73f6fb64be697f6b09",
    ),
    "fetch_cmd_resp": (
        FetchCommandResponse(Command.create(1, 7, b"payload")), 22,
        "8b8744cd1d20c79b04f44e4fec57bc433196eac2c44bfea485c1c5ec0e6e27a3",
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
