"""Digest, chaining, and immutability checks for the core types."""

import hashlib
import struct

import pytest
from hypothesis import given, strategies as st

from phalanx import (
    Command,
    EMPTY_DIGEST,
    PartialOrderLog,
    PreconditionViolation,
    digest_command,
    digest_log,
)

# Frozen golden vectors, computed once by the straight-line oracle below.
GOLDEN_CMD_1_1_HELLO = "5b55c37b3289415cb01856eba47dbe428e3cd8f70e823db641b5a16e08bec322"
GOLDEN_LOG_1_1_0 = "482267cdd0f3ba27ac57290a53f325891027fb8ad7a5cba8d4af3cc85ea49813"


def oracle_command_digest(proposer: int, seq: int, payload: bytes) -> str:
    return hashlib.sha256(
        struct.pack(">H", proposer)
        + struct.pack(">Q", seq)
        + struct.pack(">I", len(payload))
        + payload
    ).hexdigest()


def oracle_log_digest(node: int, seq: int, ts: int, dcmds: tuple, dprev: bytes) -> str:
    return hashlib.sha256(
        struct.pack(">H", node)
        + struct.pack(">Q", seq)
        + struct.pack(">Q", ts)
        + struct.pack(">I", len(dcmds))
        + b"".join(dcmds)
        + dprev
    ).hexdigest()


class TestCommandDigest:
    def test_deterministic(self):
        assert digest_command(1, 1, b"a") == digest_command(1, 1, b"a")

    def test_seq_participates(self):
        assert digest_command(1, 1, b"a") != digest_command(1, 2, b"a")

    def test_proposer_participates(self):
        assert digest_command(1, 1, b"a") != digest_command(2, 1, b"a")

    def test_golden_vector(self):
        assert digest_command(1, 1, b"hello").hex() == GOLDEN_CMD_1_1_HELLO
        assert oracle_command_digest(1, 1, b"hello") == GOLDEN_CMD_1_1_HELLO

    def test_rejects_zero_seq(self):
        with pytest.raises(PreconditionViolation):
            digest_command(1, 0, b"a")

    @given(st.integers(0, 2**16 - 1), st.integers(1, 2**32), st.binary(max_size=64))
    def test_matches_oracle(self, proposer, seq, payload):
        assert digest_command(proposer, seq, payload).hex() == oracle_command_digest(
            proposer, seq, payload
        )


class TestLogDigest:
    def test_deterministic(self):
        d = (digest_command(1, 1, b"x"),)
        assert digest_log(1, 1, 0, d, EMPTY_DIGEST) == digest_log(1, 1, 0, d, EMPTY_DIGEST)

    def test_prev_digest_participates(self):
        d = (digest_command(1, 1, b"x"),)
        other_prev = digest_command(9, 9, b"prev")
        assert digest_log(1, 2, 0, d, other_prev) != digest_log(
            1, 2, 0, d, digest_command(8, 8, b"prev2")
        )

    def test_golden_vector(self):
        d = (digest_command(1, 1, b"x"),)
        assert digest_log(1, 1, 0, d, EMPTY_DIGEST).hex() == GOLDEN_LOG_1_1_0
        assert oracle_log_digest(1, 1, 0, d, EMPTY_DIGEST) == GOLDEN_LOG_1_1_0

    def test_seq_prev_consistency_enforced(self):
        d = (digest_command(1, 1, b"x"),)
        with pytest.raises(PreconditionViolation):
            digest_log(1, 2, 0, d, EMPTY_DIGEST)
        with pytest.raises(PreconditionViolation):
            digest_log(1, 1, 0, d, d[0])

    def test_empty_log_refused(self):
        with pytest.raises(PreconditionViolation):
            digest_log(1, 1, 0, (), EMPTY_DIGEST)
        with pytest.raises(PreconditionViolation):
            PartialOrderLog.create(1, 1, 0, (), EMPTY_DIGEST)
        d = (digest_command(1, 1, b"x"),)
        full = PartialOrderLog.create(1, 1, 0, d, EMPTY_DIGEST)
        assert not PartialOrderLog(1, 1, 0, (), EMPTY_DIGEST, full.cur_digest).verify_digest()

    def test_order_and_count_of_commands_participate(self):
        a, b = digest_command(1, 1, b"a"), digest_command(1, 2, b"b")
        digests = {digest_log(1, 1, 0, cmds, EMPTY_DIGEST)
                   for cmds in [(a,), (a, b), (b, a), (a, b, a)]}
        assert len(digests) == 4

    def test_stamped_reads_the_kth_command_at_timestamp_plus_k(self):
        cmds = tuple(digest_command(1, k, b"c") for k in range(1, 4))
        log = PartialOrderLog.create(1, 1, 40, cmds, EMPTY_DIGEST)
        assert list(log.stamped()) == [(40, cmds[0]), (41, cmds[1]), (42, cmds[2])]

    @given(
        st.integers(0, 50),
        st.integers(1, 10**6),
        st.integers(0, 2**40),
        st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=5),
        st.binary(min_size=32, max_size=32),
    )
    def test_matches_oracle(self, node, seq, ts, dcmds, dprev):
        if seq == 1:
            dprev = EMPTY_DIGEST
        elif dprev == EMPTY_DIGEST:
            dprev = b"\x01" * 32
        dcmds = tuple(dcmds)
        assert digest_log(node, seq, ts, dcmds, dprev).hex() == oracle_log_digest(
            node, seq, ts, dcmds, dprev
        )


class TestChainSoundness:
    def _build_chain(self, k=5):
        logs = []
        prev = EMPTY_DIGEST
        for seq in range(1, k + 1):
            cmd = Command.create(0, seq, b"payload-%d" % seq)
            log = PartialOrderLog.create(2, seq, 10 * seq, (cmd.digest,), prev)
            logs.append(log)
            prev = log.cur_digest
        return logs

    def test_chain_links_verify(self):
        logs = self._build_chain()
        for first, second in zip(logs, logs[1:]):
            assert second.prev_digest == first.cur_digest
            assert second.verify_digest()

    @pytest.mark.parametrize("mutation", ["seq", "timestamp", "command_digest", "prev_digest"])
    def test_any_field_mutation_breaks_the_chain(self, mutation):
        import dataclasses

        logs = self._build_chain()
        target = logs[2]
        if mutation == "seq":
            mutated = dataclasses.replace(target, seq=target.seq + 1)
        elif mutation == "timestamp":
            mutated = dataclasses.replace(target, timestamp=target.timestamp + 1)
        elif mutation == "command_digest":
            mutated = dataclasses.replace(target, command_digests=(b"\x07" * 32,))
        else:
            mutated = dataclasses.replace(target, prev_digest=logs[0].cur_digest)
        # Stored digest no longer matches the mutated preimage.
        assert not mutated.verify_digest()
        # Recomputing the digest changes it, severing the successor's link.
        recomputed = digest_log(
            mutated.node_id,
            mutated.seq,
            mutated.timestamp,
            mutated.command_digests,
            mutated.prev_digest,
        )
        assert recomputed != target.cur_digest
        assert logs[3].prev_digest != recomputed


class TestCommandType:
    def test_create_fills_matching_digest(self):
        cmd = Command.create(3, 7, b"body")
        assert cmd.digest == digest_command(3, 7, b"body")

    def test_commands_are_frozen(self):
        cmd = Command.create(3, 7, b"body")
        with pytest.raises(AttributeError):
            cmd.seq = 8
