"""ASCII armor: base64 + CRC-24 framing around binary OpenPGP packets."""

from __future__ import annotations

import base64
import binascii
import re

from gitvouch.errors import VouchError

_CRC24_INIT = 0xB704CE
_CRC24_POLY = 0x1864CFB

# The labels read (RFC 9580 §6.2): a detached signature, and a key file.
SIGNATURE = "SIGNATURE"
PUBLIC_KEY_BLOCK = "PUBLIC KEY BLOCK"


class BadArmor(VouchError):
    pass


class BadChecksum(VouchError):
    pass


def _crc24_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 16
        for _ in range(8):
            crc <<= 1
            if crc & 0x1000000:
                crc ^= _CRC24_POLY
        table.append(crc & 0xFFFFFF)
    return table


_TABLE = _crc24_table()


def _through_three_bytes(crc: int) -> int:
    """The register after shifting three zero bytes through ``crc``."""
    for _ in range(3):
        crc = ((crc << 8) ^ _TABLE[crc >> 16]) & 0xFFFFFF
    return crc


# The CRC is linear in its register, so shifting three bytes through it
# is the XOR of what each of the register's three bytes contributes.
_TABLE_HI = [_through_three_bytes(b << 16) for b in range(256)]
_TABLE_MID = [_through_three_bytes(b << 8) for b in range(256)]
_TABLE_LO = [_through_three_bytes(b) for b in range(256)]


def crc24(data: bytes) -> int:
    """OpenPGP CRC-24 (RFC 4880 §6.1), three bytes per step."""
    crc = _CRC24_INIT
    hi, mid, lo = _TABLE_HI, _TABLE_MID, _TABLE_LO
    whole = len(data) - len(data) % 3
    for a, b, c in zip(data[0:whole:3], data[1:whole:3], data[2:whole:3]):
        crc = hi[(crc >> 16) ^ a] ^ mid[((crc >> 8) & 0xFF) ^ b] ^ lo[(crc & 0xFF) ^ c]
    for byte in data[whole:]:
        crc = ((crc << 8) ^ _TABLE[(crc >> 16) ^ byte]) & 0xFFFFFF
    return crc


# One armored block (RFC 9580 §6.2): a BEGIN line, ``Key: Value`` armor
# headers, one empty line, base64 lines, an optional checksum line, and
# an END line that repeats the label. Lines end in LF or CRLF; the BEGIN
# and END lines may end in spaces and tabs. Wherever two kinds of line
# may come next they start with different characters, so a match takes
# time linear in the text. A BEGIN line always matches: ``body`` is None
# when no block follows it.
_BLOCK_RE = re.compile(
    r"^-----BEGIN PGP (?P<label>[A-Z0-9 ]+)-----[ \t]*\r?$"
    r"(?:\n"
    r"(?:[!-9;-~]+: [^\r\n]*\r?\n)*"
    r"\r?\n"
    r"(?P<body>(?:[A-Za-z0-9+/][A-Za-z0-9+/=]*\r?\n)*)"
    r"(?:=(?P<checksum>[A-Za-z0-9+/]{4})\r?\n)?"
    r"-----END PGP (?P=label)-----[ \t]*\r?$)?",
    re.MULTILINE,
)


def dearmor(text: str | bytes, label: str) -> bytes:
    """The data of the first armored block in ``text``; text before its
    BEGIN line is ignored. The block must carry ``label``,
    :data:`SIGNATURE` or :data:`PUBLIC_KEY_BLOCK`, and its CRC-24 must
    match when it has a checksum line."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", "replace")
    block = _BLOCK_RE.search(text)
    if block is None:
        raise BadArmor("missing BEGIN PGP marker")
    return _decode(block, label)


def dearmor_all(text: str, label: str) -> list[bytes]:
    """The data of every armored block in ``text``, each read as by
    :func:`dearmor`."""
    return [_decode(block, label) for block in _BLOCK_RE.finditer(text)]


def _decode(block: re.Match, label: str) -> bytes:
    if block["label"] != label:
        raise BadArmor(f"armor label PGP {block['label']} is not PGP {label}")
    body = block["body"]
    if body is None:
        raise BadArmor(f"no armored block after BEGIN PGP {label}")
    try:
        data = base64.b64decode(body.replace("\r", "").replace("\n", ""), validate=True)
    except (binascii.Error, ValueError) as exc:
        raise BadArmor(f"invalid base64 payload: {exc}") from exc
    checksum = block["checksum"]
    if checksum is not None:
        stated = int.from_bytes(binascii.a2b_base64(checksum), "big")
        actual = crc24(data)
        if stated != actual:
            raise BadChecksum(f"CRC-24 mismatch: stated {stated:06x}, actual {actual:06x}")
    return data
