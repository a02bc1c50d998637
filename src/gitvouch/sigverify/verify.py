"""Detached-signature verification against a keyring.

Digest policy is enforced before any cryptography happens: MD5 and
SHA-1 signatures are refused outright, everything except SHA-256 and
SHA-512 is unsupported. Issuer resolution prefers the hashed
issuer-fingerprint subpacket and falls back to the 64-bit key id,
trying every collision candidate.
"""

from __future__ import annotations

import hashlib
from collections.abc import Container
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa, utils
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from gitvouch.errors import VouchError
from gitvouch.sigverify.fingerprint import Fingerprint
from gitvouch.sigverify.keys import ALGORITHM_NAMES, Keyring, PublicKey
from gitvouch.sigverify.packets import (
    HASH_MD5,
    HASH_SHA1,
    HASH_SHA256,
    HASH_SHA512,
    SignaturePacket,
    Unsupported,
)

SIG_BINARY = 0x00
SIG_TEXT = 0x01


class WeakDigest(VouchError):
    """Policy rejection of MD5/SHA-1 signatures; not a verification
    failure."""


class UnknownKey(VouchError):
    pass


class BadSignature(VouchError):
    pass


_DIGESTS = {HASH_SHA256: hashlib.sha256, HASH_SHA512: hashlib.sha512}
_PREHASHED = {HASH_SHA256: hashes.SHA256, HASH_SHA512: hashes.SHA512}


@dataclass(frozen=True)
class VerifiedSignature:
    """Who made a valid signature. ``proof`` is the Ed25519 check that
    passed, as :func:`ed25519_proof` spells it; None for RSA."""

    primary_fingerprint: Fingerprint
    key_fingerprint: Fingerprint
    proof: bytes | None = field(default=None, compare=False, repr=False)


# An Ed25519 check as one record: the digest's length, the 32-byte
# public key, the 64-byte signature, and the digest padded to 64 bytes.
PROOF_SIZE = 1 + 32 + 64 + 64


def ed25519_proof(material: bytes, raw: bytes, digest: bytes) -> bytes:
    """The record of checking signature ``raw`` over ``digest`` with the
    Ed25519 public key ``material``. It is :data:`PROOF_SIZE` bytes long
    only for a 32-byte key, so no other key's check can share it."""
    return bytes((len(digest),)) + material + raw + digest.ljust(64, b"\0")


def _canonical_payload(payload: bytes, sig_type: int) -> bytes:
    if sig_type == SIG_BINARY:
        return payload
    if sig_type == SIG_TEXT:
        return payload.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")
    raise Unsupported(f"signature type {sig_type:#04x} not supported")


def _candidates(sig: SignaturePacket, keyring: Keyring) -> list[PublicKey]:
    fpr = sig.issuer_fingerprint
    if fpr is not None:
        key = keyring.get(fpr)
        return [key] if key is not None else []
    key_id = sig.issuer_key_id
    if key_id is not None:
        return keyring.candidates_for_key_id(key_id)
    return []


def _public_key(key: PublicKey):
    """The ``cryptography`` public key for ``key``."""
    if key.algorithm == "ed25519":
        return Ed25519PublicKey.from_public_bytes(key.material)
    n, e = key.material
    return rsa.RSAPublicNumbers(e, n).public_key()


def _check_one(
    key: PublicKey, sig: SignaturePacket, digest: bytes, keyring: Keyring,
    proofs: Container[bytes],
) -> bytes | None:
    """Check ``sig`` with ``key``; return the Ed25519 proof, or None for
    RSA. An Ed25519 check whose exact proof is in ``proofs`` is not
    repeated."""
    if key.algorithm == "ed25519":
        r, s = sig.material
        try:
            raw = r.to_bytes(32, "big") + s.to_bytes(32, "big")
            proof = ed25519_proof(key.material, raw, digest)
            if not (proofs and proof in proofs):
                keyring.public_key(key, _public_key).verify(raw, digest)
        except (InvalidSignature, ValueError, OverflowError) as exc:
            raise BadSignature(f"Ed25519 verification failed: {exc}") from exc
        return proof
    if key.algorithm == "rsa":
        n, e = key.material
        try:
            sig_bytes = sig.material.to_bytes((n.bit_length() + 7) // 8, "big")
            keyring.public_key(key, _public_key).verify(
                sig_bytes,
                digest,
                padding.PKCS1v15(),
                utils.Prehashed(_PREHASHED[sig.hash_algorithm]()),
            )
        except (InvalidSignature, ValueError, OverflowError) as exc:
            raise BadSignature(f"RSA verification failed: {exc}") from exc
        return None
    raise Unsupported(f"cannot verify with {key.algorithm} key")


def verify_detailed(
    sig: SignaturePacket, payload: bytes, keyring: Keyring,
    *, proofs: Container[bytes] = frozenset(),
) -> VerifiedSignature:
    """Verify ``sig`` over ``payload`` with a key of ``keyring``.

    ``proofs`` holds :func:`ed25519_proof` records of Ed25519 checks
    already known to pass; a check whose exact record is there skips
    only the public-key operation. Every other check runs as usual.
    """
    if sig.hash_algorithm in (HASH_MD5, HASH_SHA1):
        name = "MD5" if sig.hash_algorithm == HASH_MD5 else "SHA-1"
        raise WeakDigest(f"{name} signatures are rejected by policy")
    digest_ctor = _DIGESTS.get(sig.hash_algorithm)
    if digest_ctor is None:
        raise Unsupported(f"hash algorithm {sig.hash_algorithm} not supported")

    hasher = digest_ctor(_canonical_payload(payload, sig.sig_type))
    hasher.update(sig.trailer())
    digest = hasher.digest()
    if digest[:2] != sig.left16:
        raise BadSignature(
            f"leading digest bytes mismatch "
            f"({digest[:2].hex()} != {sig.left16.hex()})"
        )

    candidates = _candidates(sig, keyring)
    if not candidates:
        raise UnknownKey("signature issuer is not in the keyring")
    verifiable = [c for c in candidates if c.verifiable]
    if not verifiable:
        raise Unsupported(
            f"issuer key algorithm {candidates[0].algorithm} not in verify subset"
        )
    if sig.pubkey_algorithm not in ALGORITHM_NAMES:
        raise Unsupported(
            f"public-key algorithm {sig.pubkey_algorithm} not supported"
        )

    last: BadSignature | None = None
    for key in verifiable:
        try:
            if key.algorithm != ALGORITHM_NAMES[sig.pubkey_algorithm]:
                raise BadSignature(
                    f"algorithm {sig.pubkey_algorithm} signature names "
                    f"{key.algorithm} key {key.fingerprint.display()}"
                )
            proof = _check_one(key, sig, digest, keyring, proofs)
            return VerifiedSignature(
                primary_fingerprint=key.primary_fingerprint,
                key_fingerprint=key.fingerprint,
                proof=proof,
            )
        except BadSignature as exc:
            last = exc
    assert last is not None
    raise last


def verify(sig: SignaturePacket, payload: bytes, keyring: Keyring) -> Fingerprint:
    """Verify, returning the primary fingerprint of the signing key."""
    return verify_detailed(sig, payload, keyring).primary_fingerprint
