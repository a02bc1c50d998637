"""Detached-signature verification against a keyring.

Digest policy is enforced before any cryptography happens: MD5 and
SHA-1 signatures are refused outright, everything except SHA-256 and
SHA-512 is unsupported. Issuer resolution prefers the hashed
issuer-fingerprint subpacket and falls back to the 64-bit key id,
trying every collision candidate.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from functools import partial
from operator import attrgetter
from typing import NamedTuple

from gitvouch.errors import VouchError
from gitvouch.sigverify import ed25519
from gitvouch.sigverify.fingerprint import Fingerprint
from gitvouch.sigverify.keys import ALGORITHM_NAMES, Keyring, PublicKey
from gitvouch.sigverify.packets import (
    HASH_MD5,
    HASH_SHA1,
    HASH_SHA256,
    HASH_SHA512,
    KeyPacket,
    SignaturePacket,
    Unsupported,
    key_hash_input,
)

SIG_BINARY = 0x00
SIG_TEXT = 0x01
SIG_SUBKEY_BINDING = 0x18


class WeakDigest(VouchError):
    """Policy rejection of MD5/SHA-1 signatures; not a verification
    failure."""


class UnknownKey(VouchError):
    pass


class BadSignature(VouchError):
    pass


_DIGESTS = {HASH_SHA256: hashlib.sha256, HASH_SHA512: hashlib.sha512}
_VERIFIABLE = attrgetter("verifiable")

# Decides an Ed25519 check as ``ed25519.Engine.verify`` does.
Ed25519Verify = Callable[[bytes, bytes, bytes], bool]


class VerifiedSignature(NamedTuple):
    """Who made a valid signature."""

    primary_fingerprint: Fingerprint
    key_fingerprint: Fingerprint


# The factory for the one result built per commit: the fields in order,
# as one tuple, built in C rather than by the generated ``__new__``.
_new_verified = partial(tuple.__new__, VerifiedSignature)


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


def _rsa_public_key(key: PublicKey):
    """The ``cryptography`` public key for RSA ``key``."""
    from cryptography.hazmat.primitives.asymmetric import rsa

    n, e = key.material
    return rsa.RSAPublicNumbers(e, n).public_key()


def _check_one(
    key: PublicKey, sig: SignaturePacket, digest: bytes, keyring: Keyring,
    ed25519_verify: Ed25519Verify | None,
) -> None:
    """Check ``sig`` with ``key``. An Ed25519 check must pass
    :func:`ed25519.refusal` first; then ``ed25519_verify``, or the
    engine when it is None, decides it."""
    if key.algorithm == "ed25519":
        r, s = sig.material
        try:
            raw = r.to_bytes(32, "big") + s.to_bytes(32, "big")
        except OverflowError as exc:
            raise BadSignature(f"Ed25519 verification failed: {exc}") from exc
        refused = ed25519.refusal(key.material, raw)
        if refused is not None:
            raise BadSignature(f"Ed25519 verification failed: {refused}")
        if not (ed25519_verify or ed25519.engine().verify)(key.material, raw, digest):
            raise BadSignature("Ed25519 verification failed: invalid signature")
    elif key.algorithm == "rsa":
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import padding, utils

        prehashed = hashes.SHA256() if sig.hash_algorithm == HASH_SHA256 else hashes.SHA512()
        n, e = key.material
        try:
            sig_bytes = sig.material.to_bytes((n.bit_length() + 7) // 8, "big")
            keyring.public_key(key, _rsa_public_key).verify(
                sig_bytes, digest, padding.PKCS1v15(), utils.Prehashed(prehashed)
            )
        except (InvalidSignature, ValueError, OverflowError) as exc:
            raise BadSignature(f"RSA verification failed: {exc}") from exc
    else:
        raise Unsupported(f"cannot verify with {key.algorithm} key")


def verify_detailed(
    sig: SignaturePacket, payload: bytes, keyring: Keyring,
    *, ed25519_verify: Ed25519Verify | None = None,
) -> VerifiedSignature:
    """Verify ``sig`` over ``payload`` with a key of ``keyring``. An
    Ed25519 check that passes the strict rule is decided by
    ``ed25519_verify(public, signature, digest)``, the engine when None;
    a caller may answer True and check later. RSA is checked here."""
    hasher = _hash_for(sig)(_canonical_payload(payload, sig.sig_type))
    return _verify_digest(sig, hasher, keyring, ed25519_verify)


def verify_binding(sig: SignaturePacket, primary: KeyPacket, subkey: KeyPacket,
                   primary_key: PublicKey) -> None:
    """Check that ``sig`` binds ``subkey`` to ``primary`` (RFC 9580
    §5.2.4): a subkey binding signature over both key packets, issued
    by ``primary_key``, the key loaded from ``primary``, and checked
    under the same digest policy and Ed25519 rule as
    :func:`verify_detailed`. Raises a ``VouchError`` otherwise."""
    if sig.sig_type != SIG_SUBKEY_BINDING:
        raise BadSignature(f"signature type {sig.sig_type:#04x} is not a subkey binding")
    hasher = _hash_for(sig)(key_hash_input(primary.body) + key_hash_input(subkey.body))
    _verify_digest(sig, hasher, Keyring([primary_key]), None)


def _hash_for(sig: SignaturePacket):
    """The digest constructor for ``sig``, once the digest policy allows it."""
    if sig.hash_algorithm in (HASH_MD5, HASH_SHA1):
        name = "MD5" if sig.hash_algorithm == HASH_MD5 else "SHA-1"
        raise WeakDigest(f"{name} signatures are rejected by policy")
    digest_ctor = _DIGESTS.get(sig.hash_algorithm)
    if digest_ctor is None:
        raise Unsupported(f"hash algorithm {sig.hash_algorithm} not supported")
    return digest_ctor


def _verify_digest(
    sig: SignaturePacket, hasher, keyring: Keyring,
    ed25519_verify: Ed25519Verify | None,
) -> VerifiedSignature:
    """Finish ``hasher``, fed with the signed data, with ``sig``'s
    trailer, and check the result with a key of ``keyring``."""
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
    verifiable = list(filter(_VERIFIABLE, candidates))
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
            _check_one(key, sig, digest, keyring, ed25519_verify)
            return _new_verified((key.primary_fingerprint, key.fingerprint))
        except BadSignature as exc:
            last = exc
    assert last is not None
    raise last
