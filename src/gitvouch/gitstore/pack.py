"""Version-2 packfile and pack-index reading.

Supports both offset-deltas and reference-deltas; delta chains deeper
than MAX_DELTA_DEPTH are rejected. File access goes through ``os.pread``
so a pack can be shared by concurrent readers without locking.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from bisect import bisect_left

from gitvouch.gitstore.objects import BadDelta, CorruptObject, ObjectId

OBJ_COMMIT = 1
OBJ_TREE = 2
OBJ_BLOB = 3
OBJ_TAG = 4
OBJ_OFS_DELTA = 6
OBJ_REF_DELTA = 7

KIND_BY_TYPE = {OBJ_COMMIT: "commit", OBJ_TREE: "tree", OBJ_BLOB: "blob", OBJ_TAG: "tag"}

IDX_V2_MAGIC = b"\xfftOc"
MAX_DELTA_DEPTH = 64
_READ_CHUNK = 65536
# Longest pack object header this reader accepts: a type-and-size
# varint (10 bytes for a 64-bit size), then a reference-delta's 20-byte
# base id or an offset-delta's shorter distance varint.
_HEADER_READ = 32


class PackIndex:
    """Parsed ``.idx`` (version 2): sorted sha table + offsets.

    The index comes from the same untrusted source as the pack, so its
    tables are checked against its length, and every offset it yields
    against ``pack_size``, the length of the pack it indexes.
    """

    def __init__(self, path: str, pack_size: int) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        base = 8 + 1024
        if (
            len(data) < base + 40
            or data[:4] != IDX_V2_MAGIC
            or struct.unpack(">I", data[4:8])[0] != 2
        ):
            raise CorruptObject(f"{path}: not a version-2 pack index")
        fanout = struct.unpack(">256I", data[8:base])
        if any(a > b for a, b in zip(fanout, fanout[1:])):
            raise CorruptObject(f"{path}: pack index fanout is not monotonic")
        self.count = fanout[255]
        self._fanout = fanout
        self._shas = data[base : base + 20 * self.count]
        ofs_base = base + 20 * self.count + 4 * self.count  # skip CRC table
        self._offsets = data[ofs_base : ofs_base + 4 * self.count]
        large_base = ofs_base + 4 * self.count
        self._large = data[large_base : len(data) - 40]
        if len(data) - 40 < large_base or len(self._large) % 8:
            raise CorruptObject(f"{path}: pack index length does not match its tables")
        # An offset with its high bit set indexes the large-offset table.
        # Only packs over 2 GiB have one, so test every entry's high byte
        # at once before looking at entries one by one.
        if max(self._offsets[0::4], default=0) & 0x80:
            large = [v & 0x7FFFFFFF for (v,) in struct.iter_unpack(">I", self._offsets)
                     if v & 0x80000000]
            if max(large) >= len(self._large) // 8:
                raise CorruptObject(f"{path}: pack index large offset out of range")
        self._path = path
        self._pack_size = pack_size

    def find_offset(self, oid: ObjectId) -> int | None:
        first = oid.raw[0]
        lo = self._fanout[first - 1] if first else 0
        hi = self._fanout[first]
        raw = oid.raw
        shas = self._shas
        idx = bisect_left(_ShaView(shas), raw, lo, hi)
        if idx >= hi or shas[idx * 20 : idx * 20 + 20] != raw:
            return None
        (value,) = struct.unpack_from(">I", self._offsets, idx * 4)
        if value & 0x80000000:
            (value,) = struct.unpack_from(">Q", self._large, (value & 0x7FFFFFFF) * 8)
        # Objects lie between the 12-byte pack header and its 20-byte
        # trailing checksum.
        if not 12 <= value < self._pack_size - 20:
            raise CorruptObject(f"{self._path}: offset {value} of {oid} lies outside the pack")
        return value

    def __contains__(self, oid: ObjectId) -> bool:
        return self.find_offset(oid) is not None


class _ShaView:
    """Expose the flat sha table as a sequence of 20-byte keys for bisect."""

    def __init__(self, shas: bytes) -> None:
        self._shas = shas

    def __getitem__(self, i: int) -> bytes:
        return self._shas[i * 20 : i * 20 + 20]

    def __len__(self) -> int:
        return len(self._shas) // 20


class PackFile:
    def __init__(self, pack_path: str, idx_path: str) -> None:
        self.path = pack_path
        self._fd = os.open(pack_path, os.O_RDONLY)
        self.index = PackIndex(idx_path, os.fstat(self._fd).st_size)
        header = os.pread(self._fd, 12, 0)
        if header[:4] != b"PACK" or struct.unpack(">I", header[4:8])[0] != 2:
            raise CorruptObject(f"{pack_path}: not a version-2 pack")

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __del__(self) -> None:
        try:
            self.close()
        except OSError:
            pass

    def get(self, oid: ObjectId, resolve_ref_delta, depth: int) -> tuple[str, bytes] | None:
        """Return (kind, payload) or None when the pack lacks ``oid``.

        ``resolve_ref_delta`` maps a base ObjectId and the delta depth
        reached so far to (kind, payload); the repository supplies it so
        reference-deltas can cross packs. ``depth`` is that depth when
        ``oid`` is itself a reference-delta base, so a chain that runs
        through several lookups, or a cycle, still meets MAX_DELTA_DEPTH.
        """
        offset = self.index.find_offset(oid)
        if offset is None:
            return None
        return self._object_at(offset, resolve_ref_delta, depth)

    def _object_at(self, offset: int, resolve_ref_delta, depth: int) -> tuple[str, bytes]:
        if depth > MAX_DELTA_DEPTH:
            raise BadDelta(f"{self.path}: delta chain deeper than {MAX_DELTA_DEPTH}")
        # One read covers the type-and-size varint, an offset-delta's
        # distance varint or a reference-delta's base id.
        head = os.pread(self._fd, _HEADER_READ, offset)
        pos = 0

        def byte() -> int:
            nonlocal pos
            if pos >= len(head):
                raise CorruptObject(f"{self.path}: truncated object header at {offset}")
            pos += 1
            return head[pos - 1]

        b = byte()
        obj_type = (b >> 4) & 0x07
        size = b & 0x0F
        shift = 4
        while b & 0x80:
            b = byte()
            size |= (b & 0x7F) << shift
            shift += 7

        if obj_type == OBJ_OFS_DELTA:
            b = byte()
            rel = b & 0x7F
            while b & 0x80:
                b = byte()
                rel = ((rel + 1) << 7) | (b & 0x7F)
            base_offset = offset - rel
            if base_offset < 0 or rel == 0:
                raise BadDelta(f"{self.path}: bad delta base offset at {offset}")
            delta = self._inflate(offset + pos, size)
            kind, base = self._object_at(base_offset, resolve_ref_delta, depth + 1)
            return kind, apply_delta(base, delta)

        if obj_type == OBJ_REF_DELTA:
            if pos + 20 > len(head):
                raise CorruptObject(f"{self.path}: truncated object header at {offset}")
            base_id = ObjectId(head[pos : pos + 20])
            delta = self._inflate(offset + pos + 20, size)
            kind, base = resolve_ref_delta(base_id, depth + 1)
            return kind, apply_delta(base, delta)

        kind = KIND_BY_TYPE.get(obj_type)
        if kind is None:
            raise CorruptObject(f"{self.path}: unknown pack object type {obj_type}")
        return kind, self._inflate(offset + pos, size)

    def _inflate(self, pos: int, expected: int) -> bytes:
        """Inflate the zlib stream at ``pos``, which must yield exactly
        ``expected`` bytes.

        Output is capped one byte past ``expected``, so a stream that
        inflates to more than it declares fails without being inflated
        whole. The first read is sized for an ``expected``-byte stream.
        """
        decomp = zlib.decompressobj()
        out = bytearray()
        want = min(expected + 64, _READ_CHUNK)
        try:
            while not decomp.eof:
                data = decomp.unconsumed_tail
                if not data:
                    data = os.pread(self._fd, want, pos)
                    if not data:
                        raise CorruptObject(f"{self.path}: truncated zlib stream")
                    pos += len(data)
                    want = _READ_CHUNK
                out += decomp.decompress(data, min(expected + 1 - len(out), sys.maxsize))
                if len(out) > expected:
                    raise CorruptObject(
                        f"{self.path}: object inflates past its declared {expected} bytes"
                    )
        except zlib.error as exc:
            raise CorruptObject(f"{self.path}: undecodable object: {exc}") from exc
        if len(out) != expected:
            raise CorruptObject(
                f"{self.path}: size mismatch (expected {expected}, got {len(out)})"
            )
        return bytes(out)


def _delta_varint(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise BadDelta("truncated delta size header")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            return value, pos


def apply_delta(base: bytes, delta: bytes) -> bytes:
    """Apply a git binary delta to ``base``.

    Each copy and insert is checked against the declared result size
    before it is appended, so the output never grows past that size.
    """
    src_size, pos = _delta_varint(delta, 0)
    dst_size, pos = _delta_varint(delta, pos)
    if src_size != len(base):
        raise BadDelta(f"delta base size mismatch ({src_size} != {len(base)})")
    out = bytearray()
    while pos < len(delta):
        inst = delta[pos]
        pos += 1
        if inst & 0x80:  # copy from base
            if pos + (inst & 0x7F).bit_count() > len(delta):
                raise BadDelta("truncated delta copy instruction")
            offset = 0
            size = 0
            for bit in range(4):
                if inst & (1 << bit):
                    offset |= delta[pos] << (8 * bit)
                    pos += 1
            for bit in range(3):
                if inst & (0x10 << bit):
                    size |= delta[pos] << (8 * bit)
                    pos += 1
            if size == 0:
                size = 0x10000
            if offset + size > len(base):
                raise BadDelta("delta copy out of range")
            source, start = base, offset
        elif inst:  # literal insert
            source, start, size = delta, pos, inst
            pos += inst
        else:
            raise BadDelta("reserved delta instruction 0")
        if len(out) + size > dst_size:
            raise BadDelta(f"delta result exceeds its declared {dst_size} bytes")
        out += source[start : start + size]
    if len(out) != dst_size:
        raise BadDelta(f"delta result size mismatch ({len(out)} != {dst_size})")
    return bytes(out)
