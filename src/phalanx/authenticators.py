"""Quorum-certificate authenticator: keyed-MAC shares, 2f+1 threshold.

:class:`HmacAuthenticator` is a deterministic keyed-MAC scheme for
reproducible simulation. Each node holds an HMAC key derived from a
cluster seed; a certificate records the explicit signer set plus a
binding hash over the shares. Each key's SHA-256 inner-pad and outer-pad
states (RFC 2104) are hashed once at construction, so a MAC costs two
state copies and two short updates; the bytes equal
``hmac.new(key, msg, hashlib.sha256).digest()``.

It enforces: exactly 2f+1 shares, distinct signers, one event digest.

The quorum rules and the certificate cache live in :class:`Authenticator`,
the key material and MAC arithmetic in :class:`HmacAuthenticator`. The
split stays with one scheme: each half reads on its own, and the bench
tracer (``perfbench``) patches each method on the class that defines it.

A share is checked once, when it arrives: :meth:`Authenticator.combine`
builds a certificate from shares the caller has already verified, without
checking them again. :meth:`Authenticator.aggregate` is the checked entry
point for shares of unknown origin; it verifies each share, then combines.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from abc import ABC, abstractmethod
from typing import Iterable

from .types import Certificate, Digest, PartialSignature


_SHA256_BLOCK = 64


class AggregationError(ValueError):
    """Shares handed to aggregate() do not form a valid quorum."""


class Authenticator(ABC):
    """Signs event digests and aggregates shares into quorum certificates."""

    def __init__(self, n: int, f: int):
        if n != 3 * f + 1:
            raise ValueError(f"cluster size must satisfy n = 3f+1, got n={n} f={f}")
        self.n = n
        self.f = f
        self.quorum = 2 * f + 1
        self._verified_certs: dict[tuple[Digest, frozenset[int], bytes], bool] = {}

    @abstractmethod
    def partial_sign(self, signer: int, event_digest: Digest) -> PartialSignature: ...

    @abstractmethod
    def verify_partial(self, ps: PartialSignature) -> bool: ...

    @abstractmethod
    def _combine(self, event_digest: Digest, shares: list[PartialSignature]) -> bytes: ...

    @abstractmethod
    def _verify_aggregate(self, cert: Certificate) -> bool: ...

    def aggregate(self, event_digest: Digest, partials: Iterable[PartialSignature]) -> Certificate:
        """Certificate over ``partials`` after checking every share: the entry
        point for certificates built outside the vote path, such as the golden
        fixtures; the vote path checks shares on arrival and uses :meth:`combine`."""
        shares = list(partials)
        signers = {ps.signer for ps in shares}
        if len(shares) != self.quorum or len(signers) != self.quorum:
            raise AggregationError(
                f"need exactly {self.quorum} shares from distinct signers, "
                f"got {len(shares)} ({len(signers)} distinct)"
            )
        for ps in shares:
            if ps.event_digest != event_digest:
                raise AggregationError("share signed over a different event digest")
            if not self.verify_partial(ps):
                raise AggregationError(f"invalid share from signer {ps.signer}")
        return self.combine(event_digest, shares)

    def combine(self, event_digest: Digest, partials: Iterable[PartialSignature]) -> Certificate:
        """Certificate over ``partials`` without checking them: the caller has
        verified each one over ``event_digest``, from 2f+1 distinct signers."""
        shares = sorted(partials, key=lambda ps: ps.signer)
        signers = frozenset([ps.signer for ps in shares])
        return Certificate(event_digest, signers, self._combine(event_digest, shares))

    def verify_certificate(self, cert: Certificate) -> bool:
        key = (cert.event_digest, cert.signer_set, cert.aggregate)
        cached = self._verified_certs.get(key)
        if cached is None:
            cached = (
                len(cert.signer_set) == self.quorum
                and all(0 <= s < self.n for s in cert.signer_set)
                and self._verify_aggregate(cert)
            )
            self._verified_certs[key] = cached
        return cached


class HmacAuthenticator(Authenticator):
    """Keyed-MAC shares with explicit signer accounting; fully deterministic."""

    def __init__(self, n: int, f: int, cluster_seed: bytes = b"phalanx-sim"):
        super().__init__(n, f)
        self._pads = []
        for i in range(n):
            # 32-byte keys, below SHA-256's 64-byte block: zero-pad, no pre-hash.
            key = hashlib.sha256(cluster_seed + b"|node|" + struct.pack(">H", i)).digest()
            block = key.ljust(_SHA256_BLOCK, b"\0")
            self._pads.append((
                hashlib.sha256(bytes(b ^ 0x36 for b in block)),
                hashlib.sha256(bytes(b ^ 0x5C for b in block)),
            ))

    def _mac(self, signer: int, event_digest: Digest) -> bytes:
        inner, outer = self._pads[signer]
        inner = inner.copy()
        inner.update(event_digest)
        outer = outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def partial_sign(self, signer: int, event_digest: Digest) -> PartialSignature:
        return PartialSignature(signer, event_digest, self._mac(signer, event_digest))

    def verify_partial(self, ps: PartialSignature) -> bool:
        if not 0 <= ps.signer < self.n:
            return False
        return hmac.compare_digest(ps.sig, self._mac(ps.signer, ps.event_digest))

    def _combine(self, event_digest: Digest, shares: list[PartialSignature]) -> bytes:
        h = hashlib.sha256(event_digest)
        for ps in shares:
            h.update(struct.pack(">H", ps.signer))
            h.update(ps.sig)
        return h.digest()

    def _verify_aggregate(self, cert: Certificate) -> bool:
        h = hashlib.sha256(cert.event_digest)
        for signer in cert.signers_sorted():
            h.update(struct.pack(">H", signer))
            h.update(self._mac(signer, cert.event_digest))
        return hmac.compare_digest(h.digest(), cert.aggregate)
