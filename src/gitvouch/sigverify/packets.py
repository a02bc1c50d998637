"""RFC 4880 packet parsing, restricted to what commit verification needs:
public keys, public subkeys, signatures, and user ids. Other packet
types are preserved as opaque blobs and skipped by higher layers.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import NamedTuple

from gitvouch.errors import VouchError
from gitvouch.sigverify.fingerprint import Fingerprint, checked_fingerprint

TAG_SIGNATURE = 2
TAG_PUBLIC_KEY = 6
TAG_USER_ID = 13
TAG_PUBLIC_SUBKEY = 14

ALGO_RSA = 1
ALGO_RSA_SIGN_ONLY = 3
ALGO_EDDSA = 22

ED25519_OID = bytes.fromhex("2b06010401da470f01")

HASH_MD5 = 1
HASH_SHA1 = 2
HASH_SHA256 = 8
HASH_SHA384 = 9
HASH_SHA512 = 10
HASH_SHA224 = 11

SUBPKT_CREATED = 2
SUBPKT_ISSUER_KEY_ID = 16
SUBPKT_ISSUER_FINGERPRINT = 33


class Truncated(VouchError):
    pass


class Unsupported(VouchError):
    pass


def _repr_but_last(record: tuple) -> str:
    """The repr of a packet record without its last field, packet bytes
    that the other fields already describe."""
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields[:-1], record))
    return f"{type(record).__name__}({shown})"


class Subpacket(NamedTuple):
    type: int
    critical: bool
    data: bytes


class KeyPacket(NamedTuple):
    """Tag 6 or 14. ``material`` depends on the algorithm:
    RSA -> (n, e) ints, EdDSA/Ed25519 -> 32 raw point bytes,
    anything else -> None (loadable, not verifiable)."""

    tag: int
    version: int
    creation_time: int
    algorithm: int
    material: object
    body: bytes

    __repr__ = _repr_but_last

    @property
    def is_subkey(self) -> bool:
        return self.tag == TAG_PUBLIC_SUBKEY

    @property
    def fingerprint(self) -> Fingerprint:
        return fingerprint_of(self.body)


class SignaturePacket(NamedTuple):
    """Tag 2 (version 4 only). ``hashed_portion`` is the packet prefix
    covered by the digest (version byte through hashed subpackets). A
    tuple: ``_replace`` makes a changed copy."""

    version: int
    sig_type: int
    pubkey_algorithm: int
    hash_algorithm: int
    hashed_subpackets: tuple[Subpacket, ...]
    unhashed_subpackets: tuple[Subpacket, ...]
    left16: bytes
    material: object
    hashed_portion: bytes

    __repr__ = _repr_but_last

    def _subpacket(self, type_: int, *, hashed_only: bool = False) -> bytes | None:
        for sp in self.hashed_subpackets:
            if sp.type == type_:
                return sp.data
        if hashed_only:
            return None
        for sp in self.unhashed_subpackets:
            if sp.type == type_:
                return sp.data
        return None

    @property
    def creation_time(self) -> int | None:
        data = self._subpacket(SUBPKT_CREATED)
        return int.from_bytes(data[:4], "big") if data and len(data) >= 4 else None

    @property
    def issuer_fingerprint(self) -> Fingerprint | None:
        # Only the hashed area is trustworthy for issuer identification.
        data = self._subpacket(SUBPKT_ISSUER_FINGERPRINT, hashed_only=True)
        if data and len(data) == 21 and data[0] == 4:
            return checked_fingerprint((data[1:],))
        return None

    @property
    def issuer_key_id(self) -> bytes | None:
        data = self._subpacket(SUBPKT_ISSUER_KEY_ID)
        return data if data and len(data) == 8 else None

    def trailer(self) -> bytes:
        n = len(self.hashed_portion)
        return self.hashed_portion + b"\x04\xff" + n.to_bytes(4, "big")


class UserIdPacket(NamedTuple):
    value: bytes


class UnknownPacket(NamedTuple):
    tag: int
    body: bytes

    __repr__ = _repr_but_last


Packet = KeyPacket | SignaturePacket | UserIdPacket | UnknownPacket

# Factories for the two records the signature reader builds per commit:
# the fields in order, as one tuple, built in C rather than by the
# NamedTuples' generated ``__new__``.
_new_subpacket = partial(tuple.__new__, Subpacket)
_new_signature = partial(tuple.__new__, SignaturePacket)


def _read_new_length(data: bytes, pos: int) -> tuple[int, int]:
    if pos >= len(data):
        raise Truncated("packet header ends mid-length")
    first = data[pos]
    if first < 192:
        return first, pos + 1
    if first < 224:
        if pos + 2 > len(data):
            raise Truncated("two-octet length truncated")
        return ((first - 192) << 8) + data[pos + 1] + 192, pos + 2
    if first == 255:
        if pos + 5 > len(data):
            raise Truncated("five-octet length truncated")
        return int.from_bytes(data[pos + 1 : pos + 5], "big"), pos + 5
    raise Unsupported("partial-length packet bodies are not supported")


def _read_header(data: bytes, pos: int) -> tuple[int, int, int]:
    """Returns (tag, body_start, body_len)."""
    ctb = data[pos]
    if not ctb & 0x80:
        raise Truncated(f"invalid packet tag byte {ctb:#04x} at offset {pos}")
    if ctb & 0x40:  # new format
        tag = ctb & 0x3F
        length, body_start = _read_new_length(data, pos + 1)
        return tag, body_start, length
    tag = (ctb >> 2) & 0x0F
    ltype = ctb & 0x03
    if ltype == 3:  # indeterminate: body runs to end of input
        return tag, pos + 1, len(data) - pos - 1
    nbytes = 1 << ltype
    if pos + 1 + nbytes > len(data):
        raise Truncated("old-format length truncated")
    length = int.from_bytes(data[pos + 1 : pos + 1 + nbytes], "big")
    return tag, pos + 1 + nbytes, length


def _read_mpi(body: bytes, pos: int) -> tuple[int, int]:
    if pos + 2 > len(body):
        raise Truncated("MPI length truncated")
    nbytes = ((body[pos] << 8 | body[pos + 1]) + 7) >> 3
    pos += 2
    if pos + nbytes > len(body):
        raise Truncated("MPI body truncated")
    return int.from_bytes(body[pos : pos + nbytes], "big"), pos + nbytes


def _parse_key_packet(tag: int, body: bytes) -> KeyPacket:
    if len(body) < 6:
        raise Truncated("key packet too short")
    version = body[0]
    if version != 4:
        raise Unsupported(f"version {version} keys are not supported")
    creation = int.from_bytes(body[1:5], "big")
    algorithm = body[5]
    material: object = None
    pos = 6
    if algorithm in (ALGO_RSA, ALGO_RSA_SIGN_ONLY):
        n, pos = _read_mpi(body, pos)
        e, pos = _read_mpi(body, pos)
        material = (n, e)
    elif algorithm == ALGO_EDDSA:
        if pos >= len(body):
            raise Truncated("EdDSA key missing curve OID")
        oid_len = body[pos]
        oid = body[pos + 1 : pos + 1 + oid_len]
        if len(oid) != oid_len:
            raise Truncated("EdDSA curve OID truncated")
        pos += 1 + oid_len
        point, pos = _read_mpi(body, pos)
        if oid == ED25519_OID:
            raw = point.to_bytes((point.bit_length() + 7) // 8, "big")
            if len(raw) == 33 and raw[0] == 0x40:
                material = raw[1:]
            # A point without the 0x40 prefix is left as None: the key
            # loads (it has a fingerprint) but cannot verify.
    return KeyPacket(
        tag=tag,
        version=version,
        creation_time=creation,
        algorithm=algorithm,
        material=material,
        body=body,
    )


def _read_subpacket_length(data: bytes, pos: int) -> tuple[int, int]:
    if pos >= len(data):
        raise Truncated("subpacket length truncated")
    first = data[pos]
    if first < 192:
        return first, pos + 1
    if first < 255:
        if pos + 2 > len(data):
            raise Truncated("subpacket two-octet length truncated")
        return ((first - 192) << 8) + data[pos + 1] + 192, pos + 2
    if pos + 5 > len(data):
        raise Truncated("subpacket five-octet length truncated")
    return int.from_bytes(data[pos + 1 : pos + 5], "big"), pos + 5


def _parse_subpackets(area: bytes) -> tuple[Subpacket, ...]:
    out = []
    pos = 0
    end = len(area)
    while pos < end:
        length = area[pos]
        if length < 192:
            pos += 1
        else:
            length, pos = _read_subpacket_length(area, pos)
        if length == 0 or pos + length > end:
            raise Truncated("subpacket body truncated")
        type_byte = area[pos]
        out.append(
            _new_subpacket((type_byte & 0x7F, type_byte >= 0x80, area[pos + 1 : pos + length])))
        pos += length
    return tuple(out)


def _parse_signature_packet(body: bytes) -> SignaturePacket:
    if not body:
        raise Truncated("empty signature packet")
    version = body[0]
    if version != 4:
        raise Unsupported(f"version {version} signatures are not supported")
    if len(body) < 6:
        raise Truncated("signature packet too short")
    pubkey_algorithm = body[2]
    hashed_end = 6 + (body[4] << 8 | body[5])
    if hashed_end + 2 > len(body):
        raise Truncated("hashed subpacket area truncated")
    hashed = _parse_subpackets(body[6:hashed_end])
    unhashed_end = hashed_end + 2 + (body[hashed_end] << 8 | body[hashed_end + 1])
    if unhashed_end + 2 > len(body):
        raise Truncated("unhashed subpacket area truncated")
    unhashed = _parse_subpackets(body[hashed_end + 2 : unhashed_end])
    left16 = body[unhashed_end : unhashed_end + 2]

    pos = unhashed_end + 2
    material: object
    if pubkey_algorithm in (ALGO_RSA, ALGO_RSA_SIGN_ONLY):
        material, pos = _read_mpi(body, pos)
    elif pubkey_algorithm == ALGO_EDDSA:
        r, pos = _read_mpi(body, pos)
        s, pos = _read_mpi(body, pos)
        material = (r, s)
    else:
        material = body[pos:]
    return _new_signature((
        version,
        body[1],  # sig_type
        pubkey_algorithm,
        body[3],  # hash_algorithm
        hashed,  # hashed_subpackets
        unhashed,  # unhashed_subpackets
        left16,
        material,
        body[:hashed_end],  # hashed_portion
    ))


def parse_packets(data: bytes) -> list[Packet]:
    """Parse a binary packet stream into typed packets.

    Packet types outside the supported set come back as UnknownPacket so
    callers can skip them; truncation and partial lengths raise.
    """
    packets: list[Packet] = []
    pos = 0
    while pos < len(data):
        tag, body_start, length = _read_header(data, pos)
        body = data[body_start : body_start + length]
        if len(body) != length:
            raise Truncated(f"packet body truncated (tag {tag} at offset {pos})")
        if tag in (TAG_PUBLIC_KEY, TAG_PUBLIC_SUBKEY):
            packets.append(_parse_key_packet(tag, body))
        elif tag == TAG_SIGNATURE:
            packets.append(_parse_signature_packet(body))
        elif tag == TAG_USER_ID:
            packets.append(UserIdPacket(body))
        else:
            packets.append(UnknownPacket(tag, body))
        pos = body_start + length
    return packets


def key_hash_input(key_body: bytes) -> bytes:
    """How a v4 key packet enters a fingerprint or a key signature's
    digest: 0x99, the two-octet body length, the body."""
    return b"\x99" + len(key_body).to_bytes(2, "big") + key_body


def fingerprint_of(key_body: bytes) -> Fingerprint:
    """v4 fingerprint: SHA-1 over :func:`key_hash_input`."""
    if not key_body:
        raise Truncated("empty key packet")
    if key_body[0] != 4:
        raise Unsupported(f"cannot fingerprint version {key_body[0]} key")
    return checked_fingerprint((hashlib.sha1(key_hash_input(key_body)).digest(),))
