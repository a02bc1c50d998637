"""Version-2 packfile and pack-index reading.

Supports both offset-deltas and reference-deltas; delta chains deeper
than MAX_DELTA_DEPTH are rejected. File access goes through ``os.pread``
so a pack can be shared by concurrent readers; only its cache of delta
bases takes a lock.
"""

from __future__ import annotations

import os
import struct
import sys
import threading
import zlib

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
# Bytes of inflated delta bases each PackFile keeps for later deltas.
BASE_CACHE_BYTES = 4 << 20
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
        raw = oid.raw
        first = raw[0]
        lo = self._fanout[first - 1] if first else 0
        hi = end = self._fanout[first]
        shas = self._shas
        while lo < hi:
            mid = (lo + hi) // 2
            if shas[mid * 20 : mid * 20 + 20] < raw:
                lo = mid + 1
            else:
                hi = mid
        if lo >= end or shas[lo * 20 : lo * 20 + 20] != raw:
            return None
        (value,) = struct.unpack_from(">I", self._offsets, lo * 4)
        if value & 0x80000000:
            (value,) = struct.unpack_from(">Q", self._large, (value & 0x7FFFFFFF) * 8)
        # Objects lie between the 12-byte pack header and its 20-byte
        # trailing checksum.
        if not 12 <= value < self._pack_size - 20:
            raise CorruptObject(f"{self._path}: offset {value} of {oid} lies outside the pack")
        return value

    def __contains__(self, oid: ObjectId) -> bool:
        return self.find_offset(oid) is not None


class PackFile:
    """One pack and its index.

    Reading an offset-delta resolves its base first, and a base is
    often shared by many deltas (``git gc`` stores most commits of a
    line as deltas against a handful of them). So each pack keeps the
    inflated bases it resolves, up to BASE_CACHE_BYTES, and evicts the
    oldest first. An entry also records how many deltas lie below it,
    so a chain that reaches it is still held to MAX_DELTA_DEPTH as if it
    had been read through.
    """

    def __init__(self, pack_path: str, idx_path: str) -> None:
        self.path = pack_path
        self._fd = os.open(pack_path, os.O_RDONLY)
        self.index = PackIndex(idx_path, os.fstat(self._fd).st_size)
        header = os.pread(self._fd, 12, 0)
        if header[:4] != b"PACK" or struct.unpack(">I", header[4:8])[0] != 2:
            raise CorruptObject(f"{pack_path}: not a version-2 pack")
        # Base offset -> (kind, payload, deltas below it), oldest first.
        # Lookups take no lock: a dict lookup is atomic.
        self._bases: dict[int, tuple[str, bytes, int]] = {}
        self._bases_bytes = 0
        self._bases_lock = threading.Lock()

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
        kind, payload, _ = self._object_at(offset, resolve_ref_delta, depth)
        return kind, payload

    def _object_at(
        self, offset: int, resolve_ref_delta, depth: int
    ) -> tuple[str, bytes, int | None]:
        """(kind, payload, deltas below). The last counts the deltas from
        the object at ``offset`` down to the whole object its chain ends
        in, 0 for a whole object. It is None when a reference-delta is
        among them, since that chain may continue in another pack."""
        if depth > MAX_DELTA_DEPTH:
            raise BadDelta(f"{self.path}: delta chain deeper than {MAX_DELTA_DEPTH}")
        # One read covers the type-and-size varint, an offset-delta's
        # distance varint or a reference-delta's base id.
        head = os.pread(self._fd, _HEADER_READ, offset)
        try:
            b = head[0]
            obj_type = (b >> 4) & 0x07
            size = b & 0x0F
            shift = 4
            pos = 1
            while b & 0x80:
                b = head[pos]
                pos += 1
                size |= (b & 0x7F) << shift
                shift += 7
            if obj_type == OBJ_OFS_DELTA:
                b = head[pos]
                pos += 1
                rel = b & 0x7F
                while b & 0x80:
                    b = head[pos]
                    pos += 1
                    rel = ((rel + 1) << 7) | (b & 0x7F)
        except IndexError:
            raise CorruptObject(f"{self.path}: truncated object header at {offset}") from None

        if obj_type == OBJ_OFS_DELTA:
            base_offset = offset - rel
            if base_offset < 0 or rel == 0:
                raise BadDelta(f"{self.path}: bad delta base offset at {offset}")
            delta = self._inflate(offset + pos, size)
            base = self._bases.get(base_offset)
            if base is None:
                base = self._object_at(base_offset, resolve_ref_delta, depth + 1)
                if base[2] is not None:
                    self._remember(base_offset, base)
            elif depth + 1 + base[2] > MAX_DELTA_DEPTH:
                raise BadDelta(f"{self.path}: delta chain deeper than {MAX_DELTA_DEPTH}")
            kind, payload, below = base
            return kind, apply_delta(payload, delta), None if below is None else below + 1

        if obj_type == OBJ_REF_DELTA:
            if pos + 20 > len(head):
                raise CorruptObject(f"{self.path}: truncated object header at {offset}")
            base_id = ObjectId(head[pos : pos + 20])
            delta = self._inflate(offset + pos + 20, size)
            kind, payload = resolve_ref_delta(base_id, depth + 1)
            return kind, apply_delta(payload, delta), None

        kind = KIND_BY_TYPE.get(obj_type)
        if kind is None:
            raise CorruptObject(f"{self.path}: unknown pack object type {obj_type}")
        return kind, self._inflate(offset + pos, size), 0

    def _remember(self, offset: int, base: tuple[str, bytes, int]) -> None:
        size = len(base[1])
        if size > BASE_CACHE_BYTES:
            return
        with self._bases_lock:
            if offset in self._bases:
                return
            self._bases[offset] = base
            self._bases_bytes += size
            while self._bases_bytes > BASE_CACHE_BYTES:
                _, evicted, _ = self._bases.pop(next(iter(self._bases)))
                self._bases_bytes -= len(evicted)

    def _inflate(self, pos: int, expected: int) -> bytes:
        """Inflate the zlib stream at ``pos``, which must yield exactly
        ``expected`` bytes.

        Output is capped one byte past ``expected``, so a stream that
        inflates to more than it declares fails without being inflated
        whole. The first read is sized for an ``expected``-byte stream,
        which is usually the only one.
        """
        decomp = zlib.decompressobj()
        chunks = []
        got = 0
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
                chunk = decomp.decompress(data, min(expected + 1 - got, sys.maxsize))
                got += len(chunk)
                if got > expected:
                    raise CorruptObject(
                        f"{self.path}: object inflates past its declared {expected} bytes"
                    )
                chunks.append(chunk)
        except zlib.error as exc:
            raise CorruptObject(f"{self.path}: undecodable object: {exc}") from exc
        if got != expected:
            raise CorruptObject(f"{self.path}: size mismatch (expected {expected}, got {got})")
        return chunks[0] if len(chunks) == 1 else b"".join(chunks)


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
    base_size = len(base)
    if src_size != base_size:
        raise BadDelta(f"delta base size mismatch ({src_size} != {base_size})")
    out = bytearray()
    written = 0
    end = len(delta)
    while pos < end:
        inst = delta[pos]
        pos += 1
        if inst & 0x80:  # copy from base
            if pos + (inst & 0x7F).bit_count() > end:
                raise BadDelta("truncated delta copy instruction")
            offset = size = 0
            if inst & 0x01:
                offset = delta[pos]
                pos += 1
            if inst & 0x02:
                offset |= delta[pos] << 8
                pos += 1
            if inst & 0x04:
                offset |= delta[pos] << 16
                pos += 1
            if inst & 0x08:
                offset |= delta[pos] << 24
                pos += 1
            if inst & 0x10:
                size = delta[pos]
                pos += 1
            if inst & 0x20:
                size |= delta[pos] << 8
                pos += 1
            if inst & 0x40:
                size |= delta[pos] << 16
                pos += 1
            if size == 0:
                size = 0x10000
            if offset + size > base_size:
                raise BadDelta("delta copy out of range")
            source, start = base, offset
        elif inst:  # literal insert
            if pos + inst > end:
                raise BadDelta("truncated delta insert instruction")
            source, start, size = delta, pos, inst
            pos += inst
        else:
            raise BadDelta("reserved delta instruction 0")
        written += size
        if written > dst_size:
            raise BadDelta(f"delta result exceeds its declared {dst_size} bytes")
        out += source[start : start + size]
    if written != dst_size:
        raise BadDelta(f"delta result size mismatch ({written} != {dst_size})")
    return bytes(out)
