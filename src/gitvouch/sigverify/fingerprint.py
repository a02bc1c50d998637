"""OpenPGP v4 key fingerprints (20-byte SHA-1 of the key packet)."""

from __future__ import annotations

from functools import partial
from typing import NamedTuple


class _Fingerprint(NamedTuple):
    raw: bytes


class Fingerprint(_Fingerprint):
    """A one-element tuple holding the 20 raw bytes, like
    :class:`~gitvouch.gitstore.objects.ObjectId`, so the keyring and
    authorization lookups made for every commit hash and compare in C.
    Fingerprints compare by their raw bytes."""

    __slots__ = ()

    def __new__(cls, raw: bytes) -> "Fingerprint":
        if not isinstance(raw, bytes) or len(raw) != 20:
            raise ValueError(f"fingerprint must be exactly 20 bytes, got {raw!r}")
        return tuple.__new__(cls, (raw,))

    @classmethod
    def parse(cls, text: str) -> "Fingerprint":
        """Accepts hex with or without spacing, any case."""
        compact = text.replace(" ", "")
        if len(compact) != 40:
            raise ValueError(f"fingerprint must be 40 hex digits: {text!r}")
        try:
            return cls(bytes.fromhex(compact))
        except ValueError:
            raise ValueError(f"fingerprint is not hexadecimal: {text!r}") from None

    @property
    def hex(self) -> str:
        return self.raw.hex()

    @property
    def key_id(self) -> bytes:
        """Low 64 bits, what signature issuer subpackets carry."""
        return self.raw[-8:]

    def display(self) -> str:
        """Canonical form: 10 uppercase groups of 4, space separated."""
        hx = self.raw.hex().upper()
        return " ".join(hx[i : i + 4] for i in range(0, 40, 4))

    def __str__(self) -> str:
        return self.display()

    def __repr__(self) -> str:
        return f"Fingerprint({self.raw.hex().upper()})"


# The trusted factory: builds a Fingerprint from 20 bytes a reader has
# already checked, such as a SHA-1 digest, without running the
# constructor's check again; takes the fields as one tuple, in C.
checked_fingerprint = partial(tuple.__new__, Fingerprint)
