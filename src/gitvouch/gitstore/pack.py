"""Version-2 packfile and pack-index reading.

Supports both offset-deltas and reference-deltas; delta chains deeper
than MAX_DELTA_DEPTH are rejected. File access goes through ``os.pread``
so a pack can be shared by concurrent readers without locking.
"""

from __future__ import annotations

import os
import struct
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


class PackIndex:
    """Parsed ``.idx`` (version 2): sorted sha table + offsets."""

    def __init__(self, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:4] != IDX_V2_MAGIC or struct.unpack(">I", data[4:8])[0] != 2:
            raise CorruptObject(f"{path}: not a version-2 pack index")
        fanout = struct.unpack(">256I", data[8 : 8 + 1024])
        self.count = fanout[255]
        self._fanout = fanout
        base = 8 + 1024
        self._shas = data[base : base + 20 * self.count]
        ofs_base = base + 20 * self.count + 4 * self.count  # skip CRC table
        self._offsets = data[ofs_base : ofs_base + 4 * self.count]
        large_base = ofs_base + 4 * self.count
        self._large = data[large_base : len(data) - 40]

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
        self.index = PackIndex(idx_path)
        self._fd = os.open(pack_path, os.O_RDONLY)
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
        pos = offset
        byte = self._byte(pos)
        pos += 1
        obj_type = (byte >> 4) & 0x07
        size = byte & 0x0F
        shift = 4
        while byte & 0x80:
            byte = self._byte(pos)
            pos += 1
            size |= (byte & 0x7F) << shift
            shift += 7

        if obj_type == OBJ_OFS_DELTA:
            byte = self._byte(pos)
            pos += 1
            rel = byte & 0x7F
            while byte & 0x80:
                byte = self._byte(pos)
                pos += 1
                rel = ((rel + 1) << 7) | (byte & 0x7F)
            base_offset = offset - rel
            if base_offset < 0 or rel == 0:
                raise BadDelta(f"{self.path}: bad delta base offset at {offset}")
            delta = self._inflate(pos, size)
            kind, base = self._object_at(base_offset, resolve_ref_delta, depth + 1)
            return kind, apply_delta(base, delta)

        if obj_type == OBJ_REF_DELTA:
            base_id = ObjectId(os.pread(self._fd, 20, pos))
            pos += 20
            delta = self._inflate(pos, size)
            kind, base = resolve_ref_delta(base_id, depth + 1)
            return kind, apply_delta(base, delta)

        kind = KIND_BY_TYPE.get(obj_type)
        if kind is None:
            raise CorruptObject(f"{self.path}: unknown pack object type {obj_type}")
        return kind, self._inflate(pos, size)

    def _byte(self, pos: int) -> int:
        data = os.pread(self._fd, 1, pos)
        if not data:
            raise CorruptObject(f"{self.path}: truncated at offset {pos}")
        return data[0]

    def _inflate(self, pos: int, expected: int) -> bytes:
        decomp = zlib.decompressobj()
        out = bytearray()
        try:
            while not decomp.eof:
                chunk = os.pread(self._fd, _READ_CHUNK, pos)
                if not chunk:
                    raise CorruptObject(f"{self.path}: truncated zlib stream")
                pos += len(chunk)
                out += decomp.decompress(chunk)
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
    """Apply a git binary delta to ``base``."""
    src_size, pos = _delta_varint(delta, 0)
    dst_size, pos = _delta_varint(delta, pos)
    if src_size != len(base):
        raise BadDelta(f"delta base size mismatch ({src_size} != {len(base)})")
    out = bytearray()
    while pos < len(delta):
        inst = delta[pos]
        pos += 1
        if inst & 0x80:  # copy from base
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
            out += base[offset : offset + size]
        elif inst:  # literal insert
            out += delta[pos : pos + inst]
            pos += inst
        else:
            raise BadDelta("reserved delta instruction 0")
    if len(out) != dst_size:
        raise BadDelta(f"delta result size mismatch ({len(out)} != {dst_size})")
    return bytes(out)
