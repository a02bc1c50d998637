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

_BEGIN_RE = re.compile(r"^-----BEGIN PGP ([A-Z0-9 ]+)-----[ \t]*$")
_END_RE = re.compile(r"^-----END PGP ([A-Z0-9 ]+)-----[ \t]*$")


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


# The usual shape of a block, as git and gpg write it: no armor headers,
# one blank line, non-empty base64 lines, a checksum line, and "\n" line
# ends throughout. ``dearmor`` reads a block of this shape whose BEGIN
# label is the END label (group 3) in one match, and gives it the same
# reading as its line-by-line path.
_PLAIN_BLOCK_RE = re.compile(
    r"-----BEGIN PGP (?:SIGNATURE|PUBLIC KEY BLOCK)-----\n\n"
    r"((?:[A-Za-z0-9+/][A-Za-z0-9+/=]*\n)*)"
    r"(?:=([A-Za-z0-9+/]{4})\n)?"
    r"-----END PGP (SIGNATURE|PUBLIC KEY BLOCK)-----\n?"
)


def dearmor(text: str | bytes, label: str | None = None) -> bytes:
    """Decode a single armored block; verifies the CRC-24 trailer when
    present. The block's label must be ``label``, :data:`SIGNATURE` or
    :data:`PUBLIC_KEY_BLOCK`, or either of them when ``label`` is None,
    and its END line must repeat it."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", "replace")
    plain = _PLAIN_BLOCK_RE.fullmatch(text)
    if plain is not None and text.startswith(plain[3], 15) and label in (None, plain[3]):
        encoded, checksum = plain[1].replace("\n", ""), plain[2]
    else:
        encoded, checksum = _armored_body(text, label)
    try:
        data = base64.b64decode(encoded, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise BadArmor(f"invalid base64 payload: {exc}") from exc

    if checksum is not None:
        try:
            stated = int.from_bytes(base64.b64decode(checksum, validate=True), "big")
        except (binascii.Error, ValueError) as exc:
            raise BadArmor(f"invalid checksum encoding: {exc}") from exc
        actual = crc24(data)
        if stated != actual:
            raise BadChecksum(f"CRC-24 mismatch: stated {stated:06x}, actual {actual:06x}")
    return data


def _lines(text: str) -> list[str]:
    """``text`` split at LF and CRLF only; ``str.splitlines`` also splits
    at a form feed and other separators."""
    return [line.removesuffix("\r") for line in text.split("\n")]


def _armored_body(text: str, label: str | None = None) -> tuple[str, str | None]:
    """The base64 payload of the first armored block in ``text``, lines
    joined, and its checksum's four characters, if it has a checksum
    line. ``label`` is as for :func:`dearmor`."""
    lines = _lines(text)

    for start, line in enumerate(lines):
        begin = _BEGIN_RE.match(line)
        if begin is not None:
            break
    else:
        raise BadArmor("missing BEGIN PGP marker")
    labels = (SIGNATURE, PUBLIC_KEY_BLOCK) if label is None else (label,)
    if begin[1] not in labels:
        expected = " or ".join(f"PGP {name}" for name in labels)
        raise BadArmor(f"armor label PGP {begin[1]} is not {expected}")
    end = next((i for i in range(start + 1, len(lines)) if _END_RE.match(lines[i])), None)
    if end is None:
        raise BadArmor("missing END PGP marker")
    if _END_RE.match(lines[end])[1] != begin[1]:
        raise BadArmor(f"END line does not repeat the label PGP {begin[1]}")

    body = lines[start + 1 : end]
    # Armor headers (Key: value) run until the first blank line; minimal
    # armors omit both the headers and the blank line.
    if "" in body:
        body = body[body.index("") + 1 :]
    else:
        body = [l for l in body if ": " not in l]

    checksum = None
    data_lines = []
    for line in body:
        line = line.strip()
        if not line:
            continue
        if line.startswith("="):
            checksum = line[1:5]
        else:
            data_lines.append(line)
    return "".join(data_lines), checksum


def split_armored_blocks(text: str) -> list[str]:
    """Split text into individual armored blocks (may be empty)."""
    lines = _lines(text)
    blocks = []
    current: list[str] | None = None
    for line in lines:
        if _BEGIN_RE.match(line):
            current = [line]
        elif current is not None:
            current.append(line)
            if _END_RE.match(line):
                blocks.append("\n".join(current) + "\n")
                current = None
    return blocks
