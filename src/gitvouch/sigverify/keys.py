"""Public keys and keyrings.

Deliberately ignores everything the authorization model does not need:
key signatures (web of trust), expiration, and revocation carry no
weight here. A subkey remembers its primary's fingerprint so signature
verification can report the primary key.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from gitvouch.errors import VouchError
from gitvouch.sigverify.armor import dearmor, split_armored_blocks
from gitvouch.sigverify.fingerprint import Fingerprint
from gitvouch.sigverify.packets import (
    ALGO_EDDSA,
    ALGO_RSA,
    ALGO_RSA_SIGN_ONLY,
    KeyPacket,
    parse_packets,
)


class NoKeyFound(VouchError):
    pass


# Names of the public-key algorithms keys and signatures are checked
# with; a signature is checked only with a key of the same name.
ALGORITHM_NAMES = {ALGO_RSA: "rsa", ALGO_RSA_SIGN_ONLY: "rsa", ALGO_EDDSA: "ed25519"}


@dataclass(frozen=True)
class PublicKey:
    version: int
    algorithm: str
    creation_time: int
    material: object
    fingerprint: Fingerprint
    primary_fingerprint: Fingerprint
    packet: KeyPacket

    @property
    def is_subkey(self) -> bool:
        return self.fingerprint != self.primary_fingerprint

    @property
    def verifiable(self) -> bool:
        return self.material is not None and self.algorithm in ("rsa", "ed25519")


def _algorithm_name(algo: int) -> str:
    return ALGORITHM_NAMES.get(algo, f"unsupported({algo})")


def load_keys(data: bytes | str) -> list[PublicKey]:
    """Load primary keys and subkeys from binary packets or armored text.

    Multiple concatenated armored blocks are accepted. User-id and
    signature packets are skipped entirely.
    """
    if isinstance(data, str):
        binary = b"".join(dearmor(block) for block in split_armored_blocks(data))
        if not binary:
            raise NoKeyFound("no armored blocks in text input")
    elif data.lstrip()[:15].startswith(b"-----BEGIN PGP "):
        return load_keys(data.decode("utf-8", "replace"))
    else:
        binary = data

    keys: list[PublicKey] = []
    primary: Fingerprint | None = None
    for packet in parse_packets(binary):
        if not isinstance(packet, KeyPacket):
            continue
        fpr = packet.fingerprint
        if packet.is_subkey:
            if primary is None:
                raise NoKeyFound("subkey packet before any primary key")
            owner = primary
        else:
            primary = owner = fpr
        keys.append(
            PublicKey(
                version=packet.version,
                algorithm=_algorithm_name(packet.algorithm),
                creation_time=packet.creation_time,
                material=packet.material,
                fingerprint=fpr,
                primary_fingerprint=owner,
                packet=packet,
            )
        )
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
        """``build(key)``, built once per key of this keyring: the
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
