"""Byte-at-a-time OpenPGP CRC-24: the reference for ``armor.crc24``.

``gitvouch.sigverify.armor.crc24`` steps three bytes at a time through
three derived tables. This one steps one byte at a time through the
single table of RFC 4880 §6.1, as that module once did, and must give
the same value for every input (``tests/test_sigverify.py`` compares
the two).
"""

from __future__ import annotations

_CRC24_INIT = 0xB704CE
_CRC24_POLY = 0x1864CFB


def _table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 16
        for _ in range(8):
            crc <<= 1
            if crc & 0x1000000:
                crc ^= _CRC24_POLY
        table.append(crc & 0xFFFFFF)
    return table


_TABLE = _table()


def crc24(data: bytes) -> int:
    crc = _CRC24_INIT
    for byte in data:
        crc = ((crc << 8) ^ _TABLE[((crc >> 16) ^ byte) & 0xFF]) & 0xFFFFFF
    return crc
