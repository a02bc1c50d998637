"""The write side that the package does not ship: Ed25519 and RSA keys,
their certificates and detached signatures, ASCII armor, and the
authorization file printer.

It produces real v4 OpenPGP packets that the verifier, and stock
OpenPGP tooling, accept, so tests and the benchmark can fabricate
signed histories without external tools. Both algorithms share one
packet writer and one signature-body builder; only the public-key
operation differs. Of the verifier it imports only packet constants
and the ``Fingerprint`` value, and computes fingerprints, digests and
CRC-24 itself, so a bug on one side cannot cancel the same bug on the
other.
"""

from __future__ import annotations

import base64
import hashlib
from functools import cached_property

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa, utils
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from crc24_reference import crc24
from gitvouch.authz import AuthorizationList
from gitvouch.sexp import Atom, print_sexp
from gitvouch.sigverify.fingerprint import Fingerprint
from gitvouch.sigverify.packets import (
    ALGO_EDDSA,
    ALGO_RSA,
    ED25519_OID,
    HASH_SHA1,
    HASH_SHA256,
    HASH_SHA512,
    SUBPKT_CREATED,
    SUBPKT_ISSUER_FINGERPRINT,
    SUBPKT_ISSUER_KEY_ID,
    TAG_PUBLIC_KEY,
    TAG_PUBLIC_SUBKEY,
    TAG_SIGNATURE,
    TAG_USER_ID,
)

DEFAULT_CREATED = 1600000000
SUBPKT_KEY_FLAGS = 27

# hash id -> (hashlib constructor, ``cryptography`` hash for RSA)
_HASHES = {
    HASH_SHA1: (hashlib.sha1, hashes.SHA1),
    HASH_SHA256: (hashlib.sha256, hashes.SHA256),
    HASH_SHA512: (hashlib.sha512, hashes.SHA512),
}
_HASH_BY_NAME = {"sha1": HASH_SHA1, "sha256": HASH_SHA256, "sha512": HASH_SHA512}


def mpi(value: int) -> bytes:
    bits = value.bit_length()
    return bits.to_bytes(2, "big") + value.to_bytes((bits + 7) // 8, "big")


def packet(tag: int, body: bytes) -> bytes:
    """A new-format packet."""
    header = bytes([0xC0 | tag])
    n = len(body)
    if n < 192:
        return header + bytes([n]) + body
    if n < 8384:
        n -= 192
        return header + bytes([192 + (n >> 8), n & 0xFF]) + body
    return header + b"\xff" + n.to_bytes(4, "big") + body


def subpacket(type_: int, data: bytes) -> bytes:
    """A signature subpacket; every one written here is under 191 bytes."""
    return bytes([len(data) + 1, type_]) + data


def armor(kind: str, data: bytes) -> str:
    """Encode ``data`` as an armored block, e.g. kind="SIGNATURE"."""
    encoded = base64.b64encode(data).decode("ascii")
    lines = [encoded[i : i + 64] for i in range(0, len(encoded), 64)]
    crc = base64.b64encode(crc24(data).to_bytes(3, "big")).decode("ascii")
    return (
        f"-----BEGIN PGP {kind}-----\n\n"
        + "".join(line + "\n" for line in lines)
        + f"={crc}\n-----END PGP {kind}-----\n"
    )


def _key_hash_input(key_body: bytes) -> bytes:
    """How a v4 key packet enters a fingerprint or a certification."""
    return b"\x99" + len(key_body).to_bytes(2, "big") + key_body


def signature_body(algorithm: int, sig_type: int, hash_id: int, hashed: bytes,
                   unhashed: bytes, data: bytes, material) -> bytes:
    """A v4 signature packet body over ``data`` with the given subpacket
    areas; ``material(digest, hash_id)`` gives its MPIs."""
    hashed_portion = (
        bytes([4, sig_type, algorithm, hash_id]) + len(hashed).to_bytes(2, "big") + hashed
    )
    trailer = hashed_portion + b"\x04\xff" + len(hashed_portion).to_bytes(4, "big")
    digest = _HASHES[hash_id][0](data + trailer).digest()
    return (
        hashed_portion
        + len(unhashed).to_bytes(2, "big")
        + unhashed
        + digest[:2]
        + material(digest, hash_id)
    )


class _Key:
    """A private key plus the metadata its packets carry. A subclass
    names its ``algorithm``, its public material and its signing call."""

    algorithm: int

    def __init__(self, private, created: int, user_id: str | None = None) -> None:
        self.private = private
        self.created = created
        self.user_id = user_id

    @property
    def key_packet_body(self) -> bytes:
        return (
            b"\x04" + self.created.to_bytes(4, "big") + bytes([self.algorithm])
            + self._public_material()
        )

    @cached_property
    def fingerprint(self) -> Fingerprint:
        return Fingerprint(hashlib.sha1(_key_hash_input(self.key_packet_body)).digest())

    def signature(self, sig_type: int, hash_id: int, data: bytes, created: int,
                  *, issuer_fingerprint: bool = True, extra: bytes = b"") -> bytes:
        hashed = subpacket(SUBPKT_CREATED, created.to_bytes(4, "big")) + extra
        if issuer_fingerprint:
            hashed = subpacket(SUBPKT_ISSUER_FINGERPRINT, b"\x04" + self.fingerprint.raw) + hashed
        unhashed = subpacket(SUBPKT_ISSUER_KEY_ID, self.fingerprint.key_id)
        return signature_body(self.algorithm, sig_type, hash_id, hashed, unhashed, data,
                              self._material)


class SigningKey(_Key):
    """An Ed25519 key pair with a user id."""

    algorithm = ALGO_EDDSA

    @classmethod
    def from_seed(cls, seed: bytes, user_id: str = "Test Key <test@example.org>", *,
                  created: int = DEFAULT_CREATED) -> "SigningKey":
        """Deterministic key: ``seed`` is hashed down to 32 bytes."""
        raw = hashlib.sha256(seed).digest()
        return cls(Ed25519PrivateKey.from_private_bytes(raw), created, user_id)

    @property
    def public_point(self) -> bytes:
        return self.private.public_key().public_bytes_raw()

    def _public_material(self) -> bytes:
        point = int.from_bytes(b"\x40" + self.public_point, "big")
        return bytes([len(ED25519_OID)]) + ED25519_OID + mpi(point)

    def _material(self, digest: bytes, hash_id: int) -> bytes:
        raw = self.private.sign(digest)
        return mpi(int.from_bytes(raw[:32], "big")) + mpi(int.from_bytes(raw[32:], "big"))


class RsaTestKey(_Key):
    """A fresh RSA key that signs with PKCS#1 v1.5."""

    algorithm = ALGO_RSA

    def __init__(self, bits: int = 2048, created: int = DEFAULT_CREATED) -> None:
        super().__init__(rsa.generate_private_key(public_exponent=65537, key_size=bits), created)

    def _public_material(self) -> bytes:
        numbers = self.private.public_key().public_numbers()
        return mpi(numbers.n) + mpi(numbers.e)

    def _material(self, digest: bytes, hash_id: int) -> bytes:
        prehashed = utils.Prehashed(_HASHES[hash_id][1]())
        raw = self.private.sign(digest, padding.PKCS1v15(), prehashed)
        return mpi(int.from_bytes(raw, "big"))

    def export_binary(self) -> bytes:
        return packet(TAG_PUBLIC_KEY, self.key_packet_body)

    def sign(self, payload: bytes, hash_name: str = "sha256") -> str:
        return sign_for_tests(payload, self, hash_algorithm=hash_name)


def sign_for_tests(
    payload: bytes,
    key: _Key,
    *,
    hash_algorithm: str = "sha256",
    text_mode: bool = False,
    created: int | None = None,
    issuer_fingerprint: bool = True,
) -> str:
    """Detached signature over ``payload``, armored.

    ``hash_algorithm`` may name a weak digest on purpose so tests can
    exercise the rejection path; ``issuer_fingerprint=False`` leaves
    only the 64-bit key id for issuer lookup.
    """
    data = payload
    if text_mode:
        data = payload.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")
    body = key.signature(
        0x01 if text_mode else 0x00,
        _HASH_BY_NAME[hash_algorithm],
        data,
        created if created is not None else key.created,
        issuer_fingerprint=issuer_fingerprint,
    )
    return armor("SIGNATURE", packet(TAG_SIGNATURE, body))


def export_public(key: SigningKey, *, armored: bool = True,
                  subkeys: tuple[_Key, ...] = ()) -> str | bytes:
    """Certificate (key + user id + self-certification, then each of
    ``subkeys`` with its binding signature) that OpenPGP tooling can
    import."""
    key_body = key.key_packet_body
    uid = key.user_id.encode("utf-8")
    cert_input = _key_hash_input(key_body) + b"\xb4" + len(uid).to_bytes(4, "big") + uid
    selfsig = key.signature(0x13, HASH_SHA256, cert_input, key.created,
                            extra=subpacket(SUBPKT_KEY_FLAGS, b"\x03"))  # certify + sign
    binary = (
        packet(TAG_PUBLIC_KEY, key_body)
        + packet(TAG_USER_ID, uid)
        + packet(TAG_SIGNATURE, selfsig)
        + b"".join(bind_subkey(key, sub) for sub in subkeys)
    )
    if armored:
        return armor("PUBLIC KEY BLOCK", binary)
    return binary


def bind_subkey(primary: _Key, subkey: _Key, *, sig_type: int = 0x18,
                hash_id: int = HASH_SHA256) -> bytes:
    """``subkey``'s packet as a subkey (tag 14), then ``primary``'s
    subkey binding signature over both key packets (RFC 9580 §5.2.4),
    flagged for signing. ``sig_type`` and ``hash_id`` may be wrong on
    purpose. No embedded back-signature is written."""
    data = _key_hash_input(primary.key_packet_body) + _key_hash_input(subkey.key_packet_body)
    binding = primary.signature(sig_type, hash_id, data, primary.created,
                                extra=subpacket(SUBPKT_KEY_FLAGS, b"\x02"))  # sign
    return packet(TAG_PUBLIC_SUBKEY, subkey.key_packet_body) + packet(TAG_SIGNATURE, binding)


def claim_algorithm(armored: str, algorithm: int, payload: bytes) -> str:
    """The signature in ``armored`` over ``payload``, rewritten to claim
    public-key ``algorithm``: its issuer and its other subpackets are
    kept, its leading digest bytes are recomputed so they match, and its
    material is replaced by what that algorithm reads (one MPI for RSA,
    two for EdDSA) but cannot verify."""
    lines = armored.splitlines()
    binary = base64.b64decode("".join(lines[2:-2]))  # laid out by ``armor``
    body = binary[2 if binary[1] < 192 else 3 :]  # one packet, framed by ``packet``
    hashed_end = 6 + int.from_bytes(body[4:6], "big")
    unhashed_end = hashed_end + 2 + int.from_bytes(body[hashed_end : hashed_end + 2], "big")
    material = mpi(2**255 + 1) * 2 if algorithm == ALGO_EDDSA else mpi(2**2047 + 1)
    new_body = signature_body(
        algorithm, body[1], body[3], body[6:hashed_end], body[hashed_end + 2 : unhashed_end],
        payload, lambda digest, hash_id: material,
    )
    return armor("SIGNATURE", packet(TAG_SIGNATURE, new_body))


def print_authorizations(alist: AuthorizationList) -> str:
    """Canonical printer; round-trips through parse_authorizations."""
    forms: list = [Atom("authorizations"), [Atom("version"), Atom(str(alist.version))]]
    entry_forms: list = []
    for entry in alist.entries:
        form: list = [Atom(entry.fingerprint.display(), quoted=True)]
        if entry.name is not None:
            form.append([Atom("name"), Atom(entry.name, quoted=True)])
        entry_forms.append(form)
    forms.append(entry_forms)
    return print_sexp(forms) + "\n"
