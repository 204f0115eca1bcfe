"""Quorum-certificate semantics of the keyed-MAC authenticator."""

import dataclasses
import hashlib
import hmac
import struct

import pytest

from phalanx import (
    AggregationError,
    Certificate,
    HmacAuthenticator,
    digest_command,
)

N, F = 4, 1
QUORUM = 2 * F + 1
EVENT = digest_command(1, 1, b"event")
OTHER_EVENT = digest_command(1, 2, b"event")


@pytest.fixture(params=[HmacAuthenticator], ids=["hmac"])
def auth(request):
    return request.param(N, F)


def shares(auth, signers, event=EVENT):
    return [auth.partial_sign(s, event) for s in signers]


class TestPartialSignatures:
    def test_sign_verify_roundtrip(self, auth):
        ps = auth.partial_sign(2, EVENT)
        assert ps.signer == 2
        assert auth.verify_partial(ps)

    def test_wrong_signer_claim_fails(self, auth):
        ps = auth.partial_sign(2, EVENT)
        forged = dataclasses.replace(ps, signer=3)
        assert not auth.verify_partial(forged)

    def test_wrong_digest_fails(self, auth):
        ps = auth.partial_sign(2, EVENT)
        forged = dataclasses.replace(ps, event_digest=OTHER_EVENT)
        assert not auth.verify_partial(forged)

    def test_out_of_range_signer_fails(self, auth):
        ps = auth.partial_sign(2, EVENT)
        assert not auth.verify_partial(dataclasses.replace(ps, signer=99))


class TestHmacPads:
    SEED = b"phalanx:1"

    @pytest.mark.parametrize("size", [0, 32, 100])
    def test_mac_equals_stdlib_hmac(self, size):
        auth = HmacAuthenticator(16, 5, self.SEED)
        msg = bytes(i % 251 for i in range(size))
        for i in range(16):
            key = hashlib.sha256(self.SEED + b"|node|" + struct.pack(">H", i)).digest()
            assert auth._mac(i, msg) == hmac.new(key, msg, hashlib.sha256).digest()

    def test_flipped_share_bit_fails(self):
        auth = HmacAuthenticator(16, 5, self.SEED)
        ps = auth.partial_sign(9, EVENT)
        for bit in (0, 7, 8 * len(ps.sig) - 1):
            sig = bytearray(ps.sig)
            sig[bit // 8] ^= 1 << (bit % 8)
            assert not auth.verify_partial(dataclasses.replace(ps, sig=bytes(sig)))
        assert auth.verify_partial(ps)


class TestAggregation:
    def test_exact_quorum_verifies(self, auth):
        cert = auth.aggregate(EVENT, shares(auth, [1, 2, 3]))
        assert cert.signer_set == frozenset({1, 2, 3})
        assert auth.verify_certificate(cert)

    def test_below_quorum_rejected(self, auth):
        with pytest.raises(AggregationError):
            auth.aggregate(EVENT, shares(auth, [1, 2]))

    def test_above_quorum_rejected(self, auth):
        with pytest.raises(AggregationError):
            auth.aggregate(EVENT, shares(auth, [0, 1, 2, 3]))

    def test_duplicate_signer_rejected(self, auth):
        duplicated = shares(auth, [1, 1, 2])
        with pytest.raises(AggregationError):
            auth.aggregate(EVENT, duplicated)

    def test_mixed_digest_rejected(self, auth):
        mixed = shares(auth, [1, 2]) + shares(auth, [3], event=OTHER_EVENT)
        with pytest.raises(AggregationError):
            auth.aggregate(EVENT, mixed)

    def test_invalid_share_rejected(self, auth):
        good = shares(auth, [1, 2])
        bad = dataclasses.replace(good[0], signer=3)
        with pytest.raises(AggregationError):
            auth.aggregate(EVENT, good + [bad])


class TestCombine:
    def test_combine_matches_aggregate_without_checking(self, auth, monkeypatch):
        signed = shares(auth, [3, 1, 2])
        expected = auth.aggregate(EVENT, signed)
        checked = []
        monkeypatch.setattr(auth, "verify_partial", checked.append)
        combined = auth.combine(EVENT, reversed(signed))
        assert combined == expected
        assert checked == []

    def test_equal_signer_sets_share_one_cache_entry(self, auth, monkeypatch):
        cert = auth.aggregate(EVENT, shares(auth, [1, 2, 3]))
        copy = Certificate(
            bytes(cert.event_digest), frozenset([3, 2, 1]), bytes(cert.aggregate)
        )
        assert copy.signer_set is not cert.signer_set
        calls = []
        verify = auth._verify_aggregate
        monkeypatch.setattr(auth, "_verify_aggregate", lambda c: calls.append(c) or verify(c))
        assert auth.verify_certificate(cert)
        assert auth.verify_certificate(copy)
        assert calls == [cert]
        assert len(auth._verified_certs) == 1


class TestCertificateTampering:
    def test_flipped_aggregate_byte_fails(self, auth):
        cert = auth.aggregate(EVENT, shares(auth, [1, 2, 3]))
        tampered_bytes = bytes([cert.aggregate[0] ^ 0x01]) + cert.aggregate[1:]
        tampered = Certificate(cert.event_digest, cert.signer_set, tampered_bytes)
        assert not auth.verify_certificate(tampered)

    def test_swapped_event_digest_fails(self, auth):
        cert = auth.aggregate(EVENT, shares(auth, [1, 2, 3]))
        tampered = Certificate(OTHER_EVENT, cert.signer_set, cert.aggregate)
        assert not auth.verify_certificate(tampered)

    def test_altered_signer_set_fails(self, auth):
        cert = auth.aggregate(EVENT, shares(auth, [1, 2, 3]))
        tampered = Certificate(cert.event_digest, frozenset({0, 2, 3}), cert.aggregate)
        assert not auth.verify_certificate(tampered)

    def test_undersized_signer_set_fails(self, auth):
        cert = auth.aggregate(EVENT, shares(auth, [1, 2, 3]))
        tampered = Certificate(cert.event_digest, frozenset({2, 3}), cert.aggregate)
        assert not auth.verify_certificate(tampered)


class TestModelUnforgeability:
    def test_no_quorum_no_certificate(self, auth):
        # With only f+1 = 2 cooperative signers there is no way to build a
        # verifying certificate: any claimed signer set of size 2f+1 must
        # include a node whose share the forger cannot produce.
        cooperative = shares(auth, [0, 1])
        fake_aggregate = auth._combine(EVENT, cooperative + cooperative[:1])
        forged = Certificate(EVENT, frozenset({0, 1, 2}), fake_aggregate)
        assert not auth.verify_certificate(forged)

    def test_quorum_is_two_f_plus_one(self):
        assert HmacAuthenticator(7, 2).quorum == 5

    def test_bad_cluster_shape_rejected(self):
        with pytest.raises(ValueError):
            HmacAuthenticator(5, 1)
