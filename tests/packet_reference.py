"""The packet framing and signature-packet reader ``parse_packets`` once
used: the reference for them.

``gitvouch.sigverify.packets`` reads a signature packet into a tuple
and frames packets with fewer steps. This is the code it replaced, kept
as it was, except that it returns plain tuples: for every packet stream
the two must agree, raising the same error on the same input and
otherwise giving the same fields (``tests/test_sigverify.py`` compares
them). Key packets, which this reference does not cover, are read with
the package's own key reader.
"""

from __future__ import annotations

from gitvouch.sigverify.packets import (
    ALGO_EDDSA,
    ALGO_RSA,
    ALGO_RSA_SIGN_ONLY,
    TAG_PUBLIC_KEY,
    TAG_PUBLIC_SUBKEY,
    TAG_SIGNATURE,
    TAG_USER_ID,
    Truncated,
    Unsupported,
    _parse_key_packet,
)


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
    bits = int.from_bytes(body[pos : pos + 2], "big")
    nbytes = (bits + 7) // 8
    pos += 2
    if pos + nbytes > len(body):
        raise Truncated("MPI body truncated")
    return int.from_bytes(body[pos : pos + nbytes], "big"), pos + nbytes


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


def _parse_subpackets(area: bytes) -> tuple[tuple[int, bool, bytes], ...]:
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
        out.append((type_byte & 0x7F, type_byte >= 0x80, area[pos + 1 : pos + length]))
        pos += length
    return tuple(out)


def parse_signature_packet(body: bytes) -> tuple:
    """The fields of ``SignaturePacket``, in order, as a tuple."""
    if not body:
        raise Truncated("empty signature packet")
    version = body[0]
    if version != 4:
        raise Unsupported(f"version {version} signatures are not supported")
    if len(body) < 6:
        raise Truncated("signature packet too short")
    sig_type = body[1]
    pubkey_algorithm = body[2]
    hash_algorithm = body[3]
    hashed_len = int.from_bytes(body[4:6], "big")
    hashed_end = 6 + hashed_len
    if hashed_end + 2 > len(body):
        raise Truncated("hashed subpacket area truncated")
    hashed = _parse_subpackets(body[6:hashed_end])
    unhashed_len = int.from_bytes(body[hashed_end : hashed_end + 2], "big")
    unhashed_end = hashed_end + 2 + unhashed_len
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
    return (version, sig_type, pubkey_algorithm, hash_algorithm, hashed, unhashed,
            left16, material, body[:hashed_end])


def parse_packets(data: bytes) -> list[tuple]:
    """Each packet of ``data``: a signature as :func:`parse_signature_packet`
    gives it, a key as the package's key reader does, and any other
    packet as ``(tag, body)``."""
    packets: list[tuple] = []
    pos = 0
    while pos < len(data):
        tag, body_start, length = _read_header(data, pos)
        body = data[body_start : body_start + length]
        if len(body) != length:
            raise Truncated(f"packet body truncated (tag {tag} at offset {pos})")
        if tag in (TAG_PUBLIC_KEY, TAG_PUBLIC_SUBKEY):
            packets.append(("key", _parse_key_packet(tag, body)))
        elif tag == TAG_SIGNATURE:
            packets.append(parse_signature_packet(body))
        elif tag == TAG_USER_ID:
            packets.append((tag, body))
        else:
            packets.append((tag, body))
        pos = body_start + length
    return packets
