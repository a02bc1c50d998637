"""OpenPGP subset: key loading and detached-signature verification."""

from gitvouch.sigverify.armor import BadArmor, BadChecksum, dearmor
from gitvouch.sigverify.fingerprint import Fingerprint
from gitvouch.sigverify.keys import Keyring, NoKeyFound, PublicKey, load_keys
from gitvouch.sigverify.packets import (
    KeyPacket,
    SignaturePacket,
    Truncated,
    UnknownPacket,
    Unsupported,
    UserIdPacket,
    fingerprint_of,
    parse_packets,
)
from gitvouch.sigverify.verify import (
    BadSignature,
    UnknownKey,
    VerifiedSignature,
    WeakDigest,
    verify_detailed,
)

__all__ = [
    "BadArmor",
    "BadChecksum",
    "BadSignature",
    "Fingerprint",
    "KeyPacket",
    "Keyring",
    "NoKeyFound",
    "PublicKey",
    "SignaturePacket",
    "Truncated",
    "UnknownKey",
    "UnknownPacket",
    "Unsupported",
    "UserIdPacket",
    "VerifiedSignature",
    "WeakDigest",
    "dearmor",
    "fingerprint_of",
    "load_keys",
    "parse_packets",
    "verify_detailed",
]
