"""Ed25519 verification: one strict acceptance rule, then one engine.

The engine is the system's libsodium, called through ``ctypes``,
whenever the library loads; otherwise it is ``cryptography``. The two
differ on keys and signatures that no honest signer makes: at
libsodium 1.0.18, ``cryptography`` accepts the small-order key
``01 00…00`` with the signature key‖0³² over any digest, and libsodium
does not. :func:`refusal` applies libsodium's rule in Python before
either engine runs, so a verdict never depends on which engine ran:

- S < L, with S read little-endian;
- the key A is canonical: y < p once the sign bit is masked off;
- neither A nor R is one of libsodium 1.0.18's seven small-order
  encodings, compared with the sign bit ignored.

Under that rule both engines check the same cofactorless equation and
compare R byte for byte.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable
from typing import NamedTuple

_L = 2**252 + 27742317777372353535851937790883648493
_P = 2**255 - 19
_Y_MASK = (1 << 255) - 1

# The y coordinates that libsodium 1.0.18's ``ge25519_has_small_order``
# refuses: 0, 1 and p - 1, their non-canonical forms p and p + 1, and
# the two order-8 points.
SMALL_ORDER_Y = frozenset(
    [0, 1, _P - 1, _P, _P + 1]
    + [
        int.from_bytes(bytes.fromhex(encoding), "little")
        for encoding in (
            "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
            "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        )
    ]
)

# Tried in this order; ``ctypes.util.find_library`` is not used because
# it runs ``ldconfig``.
SONAMES = ("libsodium.so.23", "libsodium.so.26", "libsodium.so")


def refusal(public: bytes, signature: bytes) -> str | None:
    """Why the strict rule refuses key ``public`` with ``signature``,
    or None if both engines may check them."""
    if len(public) != 32 or len(signature) != 64:
        return "a key is 32 bytes and a signature 64"
    if int.from_bytes(signature[32:], "little") >= _L:
        return "S is not below the group order"
    y = int.from_bytes(public, "little") & _Y_MASK
    if y >= _P:
        return "public key is not canonical"
    if y in SMALL_ORDER_Y:
        return "public key has small order"
    if int.from_bytes(signature[:32], "little") & _Y_MASK in SMALL_ORDER_Y:
        return "R has small order"
    return None


class Engine(NamedTuple):
    """What checks the Ed25519 equation: its name, and ``verify(public,
    signature, digest)``, true when the signature is valid."""

    name: str
    verify: Callable[[bytes, bytes, bytes], bool]


def _cryptography_verify(public: bytes, signature: bytes, digest: bytes) -> bool:
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, digest)
    except InvalidSignature:
        return False
    return True


CRYPTOGRAPHY = Engine("cryptography", _cryptography_verify)


@functools.cache
def libsodium() -> Engine | None:
    """The libsodium engine, or None when no soname loads or
    ``sodium_init`` fails. The library is loaded on the first call."""
    for soname in SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            break
        except OSError:
            continue
    else:
        return None
    try:
        lib.sodium_init.argtypes = []
        lib.sodium_init.restype = ctypes.c_int
        lib.sodium_version_string.argtypes = []
        lib.sodium_version_string.restype = ctypes.c_char_p
        verify = lib.crypto_sign_ed25519_verify_detached
    except AttributeError:
        return None
    if lib.sodium_init() < 0:
        return None
    verify.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p]
    verify.restype = ctypes.c_int

    def sodium_verify(public: bytes, signature: bytes, digest: bytes) -> bool:
        if len(public) != 32 or len(signature) != 64:
            return False
        return verify(signature, digest, len(digest), public) == 0

    version = lib.sodium_version_string().decode("ascii", "replace")
    return Engine(f"libsodium {version}", sodium_verify)


def engine() -> Engine:
    """The engine of this process: libsodium when it loads, otherwise
    ``cryptography``. Callers apply :func:`refusal` first."""
    return libsodium() or CRYPTOGRAPHY
