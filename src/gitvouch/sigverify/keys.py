"""Public keys and keyrings.

Deliberately ignores everything the authorization model does not need:
certifications (web of trust), expiration, and revocation carry no
weight here. The one key signature read is a subkey's binding
signature: a subkey counts only when its primary has signed it. A
subkey remembers its primary's fingerprint so signature verification
can report the primary key.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from typing import NamedTuple

from gitvouch.errors import VouchError
from gitvouch.sigverify.armor import PUBLIC_KEY_BLOCK, dearmor_all
from gitvouch.sigverify.fingerprint import Fingerprint
from gitvouch.sigverify.packets import (
    ALGO_EDDSA,
    ALGO_RSA,
    ALGO_RSA_SIGN_ONLY,
    KeyPacket,
    SignaturePacket,
    parse_packets,
)

logger = logging.getLogger(__name__)


class NoKeyFound(VouchError):
    pass


# Names of the public-key algorithms keys and signatures are checked
# with; a signature is checked only with a key of the same name.
ALGORITHM_NAMES = {ALGO_RSA: "rsa", ALGO_RSA_SIGN_ONLY: "rsa", ALGO_EDDSA: "ed25519"}


class PublicKey(NamedTuple):
    version: int
    algorithm: str
    creation_time: int
    material: object
    fingerprint: Fingerprint
    primary_fingerprint: Fingerprint

    @property
    def is_subkey(self) -> bool:
        return self.fingerprint != self.primary_fingerprint

    @property
    def verifiable(self) -> bool:
        return self.material is not None and self.algorithm in ("rsa", "ed25519")


def _algorithm_name(algo: int) -> str:
    return ALGORITHM_NAMES.get(algo, f"unsupported({algo})")


def _public_key(packet: KeyPacket, primary: Fingerprint | None = None) -> PublicKey:
    """The key ``packet`` holds; a subkey names its ``primary``."""
    fingerprint = packet.fingerprint
    return PublicKey(
        version=packet.version,
        algorithm=_algorithm_name(packet.algorithm),
        creation_time=packet.creation_time,
        material=packet.material,
        fingerprint=fingerprint,
        primary_fingerprint=primary or fingerprint,
    )


def load_keys(data: bytes | str) -> list[PublicKey]:
    """Load primary keys and subkeys from binary packets or armored text.

    ``bytes`` are binary packets when the first byte is a packet tag
    (bit 7 set), and text otherwise. Text may hold several armored
    blocks, each labelled ``PGP PUBLIC KEY BLOCK``; text outside them is
    ignored. A subkey is kept only when a signature that follows it,
    before the next key, binds it to its primary (see
    :func:`~gitvouch.sigverify.verify.verify_binding`); otherwise it is
    skipped with a warning. User-id packets and every other signature
    are skipped entirely.
    """
    # verify imports this module.
    from gitvouch.sigverify.verify import verify_binding

    if isinstance(data, bytes) and data[:1] >= b"\x80":
        binary = data
    else:
        if isinstance(data, bytes):
            data = data.decode("utf-8", "replace")
        binary = b"".join(dearmor_all(data, PUBLIC_KEY_BLOCK))
        if not binary:
            raise NoKeyFound("no armored blocks in text input")

    keys: list[PublicKey] = []
    primary: tuple[KeyPacket, PublicKey] | None = None
    unbound: KeyPacket | None = None  # the last subkey, until a binding

    def skip_unbound() -> None:
        if unbound is not None:
            logger.warning("skipping subkey %s of %s: no valid binding signature",
                           unbound.fingerprint.display(), primary[1].fingerprint.display())

    for packet in parse_packets(binary):
        if isinstance(packet, SignaturePacket):
            if unbound is not None:
                try:
                    verify_binding(packet, primary[0], unbound, primary[1])
                except VouchError:
                    continue
                keys.append(_public_key(unbound, primary[1].fingerprint))
                unbound = None
            continue
        if not isinstance(packet, KeyPacket):
            continue
        skip_unbound()
        if packet.is_subkey:
            if primary is None:
                raise NoKeyFound("subkey packet before any primary key")
            unbound = packet
        else:
            unbound = None
            key = _public_key(packet)
            primary = (packet, key)
            keys.append(key)
    skip_unbound()
    if not keys:
        raise NoKeyFound("input contains no public key packets")
    return keys


class Keyring:
    """Fingerprint- and key-id-indexed set of public keys. Key-id
    collisions are kept as candidate lists, never dropped."""

    def __init__(self, keys: list[PublicKey] | None = None) -> None:
        self._by_fingerprint: dict[Fingerprint, PublicKey] = {}
        self._by_key_id: dict[bytes, list[Fingerprint]] = {}
        self._public_keys: dict[bytes, object] = {}
        for key in keys or []:
            self.add(key)

    def add(self, key: PublicKey) -> None:
        if key.fingerprint in self._by_fingerprint:
            return
        self._by_fingerprint[key.fingerprint] = key
        self._by_key_id.setdefault(key.fingerprint.key_id, []).append(key.fingerprint)

    def update(self, keys: list[PublicKey]) -> None:
        for key in keys:
            self.add(key)

    def get(self, fingerprint: Fingerprint) -> PublicKey | None:
        return self._by_fingerprint.get(fingerprint)

    def public_key(self, key: PublicKey, build: Callable[[PublicKey], object]) -> object:
        """``build(key)``, built once per key of this keyring: the RSA
        verifier's ready-to-use public key object."""
        public = self._public_keys.get(key.fingerprint.raw)
        if public is None:
            public = self._public_keys[key.fingerprint.raw] = build(key)
        return public

    def candidates_for_key_id(self, key_id: bytes) -> list[PublicKey]:
        return [self._by_fingerprint[f] for f in self._by_key_id.get(key_id, [])]

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint in self._by_fingerprint

    def __len__(self) -> int:
        return len(self._by_fingerprint)

    def __iter__(self):
        return iter(self._by_fingerprint.values())
