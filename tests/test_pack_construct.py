"""Pack reading against hand-assembled packs: delta chains at and past
the depth bound, ref-deltas with out-of-pack bases, and the raw delta
applier's failure modes."""

import hashlib
import os
import struct
import sys
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from gitvouch.gitstore import BadDelta, CorruptObject, ObjectId, Repository, hash_object
from gitvouch.gitstore import pack as pack_module
from gitvouch.gitstore.pack import (
    MAX_DELTA_DEPTH,
    OBJ_BLOB,
    OBJ_OFS_DELTA,
    OBJ_REF_DELTA,
    apply_delta,
)


def encode_obj_header(obj_type: int, size: int) -> bytes:
    byte = (obj_type << 4) | (size & 0x0F)
    size >>= 4
    out = bytearray()
    while size:
        out.append(0x80 | byte)
        byte = size & 0x7F
        size >>= 7
    out.append(byte)
    return bytes(out)


def encode_ofs_distance(distance: int) -> bytes:
    out = bytearray([distance & 0x7F])
    distance >>= 7
    while distance:
        distance -= 1
        out.insert(0, 0x80 | (distance & 0x7F))
        distance >>= 7
    return bytes(out)


def grow_delta(src_size: int) -> bytes:
    """Copy the whole base, then append one 'X' (sizes stay < 128)."""
    assert src_size < 127
    return bytes([src_size, src_size + 1, 0x90, src_size]) + b"\x01X"


def build_idx(ids_and_offsets) -> bytes:
    ordered = sorted(ids_and_offsets, key=lambda pair: pair[0].raw)
    fanout = [0] * 256
    for oid, _ in ordered:
        fanout[oid.raw[0]] += 1
    total = 0
    cumulative = []
    for count in fanout:
        total += count
        cumulative.append(total)
    idx = bytearray(b"\xfftOc" + struct.pack(">I", 2))
    idx += struct.pack(">256I", *cumulative)
    for oid, _ in ordered:
        idx += oid.raw
    idx += b"\x00" * (4 * len(ordered))  # crc table (unchecked)
    for _, offset in ordered:
        idx += struct.pack(">I", offset)
    idx += b"\x00" * 20  # pack checksum placeholder
    idx += b"\x00" * 20  # idx checksum placeholder
    return bytes(idx)


def chain_pack(depth: int):
    """A 50-byte base blob followed by ``depth`` stacked deltas, each
    appending one byte, so every level has a distinct object id."""
    payload = b"A" * 50
    pack = bytearray(b"PACK" + struct.pack(">II", 2, depth + 1))
    offsets = [len(pack)]
    pack += encode_obj_header(OBJ_BLOB, len(payload))
    pack += zlib.compress(payload)
    content = payload
    for _ in range(depth):
        delta = grow_delta(len(content))
        offset = len(pack)
        pack += encode_obj_header(OBJ_OFS_DELTA, len(delta))
        pack += encode_ofs_distance(offset - offsets[-1])
        pack += zlib.compress(delta)
        offsets.append(offset)
        content += b"X"
    pack += hashlib.sha1(pack).digest()
    return bytes(pack), offsets, hash_object("blob", payload), hash_object("blob", content), content


def make_repo_with_pack(tmp_path, pack: bytes, idx: bytes) -> str:
    path = str(tmp_path / "repo.git")
    pack_dir = os.path.join(path, "objects", "pack")
    os.makedirs(pack_dir)
    os.makedirs(os.path.join(path, "refs"))
    with open(os.path.join(path, "HEAD"), "w") as fh:
        fh.write("ref: refs/heads/master\n")
    with open(os.path.join(pack_dir, "pack-test.pack"), "wb") as fh:
        fh.write(pack)
    with open(os.path.join(pack_dir, "pack-test.idx"), "wb") as fh:
        fh.write(idx)
    return path


def add_loose(path: str, kind: str, payload: bytes) -> ObjectId:
    oid = hash_object(kind, payload)
    loose_dir = os.path.join(path, "objects", oid.hex[:2])
    os.makedirs(loose_dir, exist_ok=True)
    with open(os.path.join(loose_dir, oid.hex[2:]), "wb") as fh:
        fh.write(zlib.compress(b"%s %d\x00" % (kind.encode(), len(payload)) + payload))
    return oid


class TestDeltaChains:
    def test_deep_chain_within_bound_resolves(self, tmp_path):
        pack, offsets, base_id, tip_id, content = chain_pack(depth=8)
        idx = build_idx([(base_id, offsets[0]), (tip_id, offsets[-1])])
        repo = Repository(make_repo_with_pack(tmp_path, pack, idx))
        assert repo.read_object(tip_id).payload == content
        assert repo.read_object(base_id).payload == b"A" * 50

    def test_chain_at_exact_bound_resolves(self, tmp_path):
        pack, offsets, base_id, tip_id, content = chain_pack(depth=MAX_DELTA_DEPTH)
        idx = build_idx([(base_id, offsets[0]), (tip_id, offsets[-1])])
        repo = Repository(make_repo_with_pack(tmp_path, pack, idx))
        assert repo.read_object(tip_id).payload == content

    def test_chain_past_depth_bound_rejected(self, tmp_path):
        pack, offsets, base_id, tip_id, _ = chain_pack(depth=MAX_DELTA_DEPTH + 1)
        idx = build_idx([(base_id, offsets[0]), (tip_id, offsets[-1])])
        repo = Repository(make_repo_with_pack(tmp_path, pack, idx))
        with pytest.raises(BadDelta):
            repo.read_object(tip_id)

    def test_ref_delta_base_outside_pack(self, tmp_path):
        base_payload = b"B" * 50
        base_id = hash_object("blob", base_payload)
        derived_payload = base_payload + b"X"
        derived_id = hash_object("blob", derived_payload)

        delta = grow_delta(len(base_payload))
        pack = bytearray(b"PACK" + struct.pack(">II", 2, 1))
        offset = len(pack)
        pack += encode_obj_header(OBJ_REF_DELTA, len(delta))
        pack += base_id.raw
        pack += zlib.compress(delta)
        pack += hashlib.sha1(pack).digest()

        path = make_repo_with_pack(tmp_path, bytes(pack), build_idx([(derived_id, offset)]))
        add_loose(path, "blob", base_payload)
        repo = Repository(path)
        assert repo.read_object(derived_id).payload == derived_payload

    def test_ref_delta_cycle_rejected(self, tmp_path):
        # Two reference-deltas, each naming the other as its base.
        first_id = hash_object("blob", b"C" * 51)
        second_id = hash_object("blob", b"D" * 51)
        delta = grow_delta(50)
        pack = bytearray(b"PACK" + struct.pack(">II", 2, 2))
        offsets = []
        for base_id in (second_id, first_id):
            offsets.append(len(pack))
            pack += encode_obj_header(OBJ_REF_DELTA, len(delta))
            pack += base_id.raw
            pack += zlib.compress(delta)
        pack += hashlib.sha1(pack).digest()
        idx = build_idx([(first_id, offsets[0]), (second_id, offsets[1])])
        repo = Repository(make_repo_with_pack(tmp_path, bytes(pack), idx))
        with pytest.raises(BadDelta):
            repo.read_object(first_id)

    def test_concurrent_pack_reads(self, tmp_path):
        pack, offsets, base_id, tip_id, content = chain_pack(depth=8)
        idx = build_idx([(base_id, offsets[0]), (tip_id, offsets[-1])])
        repo = Repository(make_repo_with_pack(tmp_path, pack, idx))
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: repo.read_object(tip_id).payload, range(64)))
        assert all(r == content for r in results)


class TestHostileInput:
    def test_zlib_bomb_rejected_without_inflating(self, tmp_path):
        # The header declares 5 bytes; the stream inflates to 50 MB.
        inflated = 50 << 20
        comp = zlib.compressobj()
        stream = b"".join(comp.compress(bytes(1 << 20)) for _ in range(inflated >> 20))
        stream += comp.flush()
        pack = bytearray(b"PACK" + struct.pack(">II", 2, 1))
        offset = len(pack)
        pack += encode_obj_header(OBJ_BLOB, 5) + stream
        pack += hashlib.sha1(pack).digest()
        oid = hash_object("blob", b"bomb!")
        repo = Repository(make_repo_with_pack(tmp_path, bytes(pack), build_idx([(oid, offset)])))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptObject, match="inflates past"):
                repo.read_object(oid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20 < inflated // 10

    @staticmethod
    def small_pack():
        pack, offsets, base_id, tip_id, _ = chain_pack(depth=2)
        return pack, [(base_id, offsets[0]), (tip_id, offsets[-1])]

    def test_truncated_index_rejected_at_open(self, tmp_path):
        pack, entries = self.small_pack()
        idx = build_idx(entries)
        offsets_start = 8 + 1024 + 24 * len(entries)
        for cut in (offsets_start + 2, len(idx) - 41, 100):
            path = make_repo_with_pack(tmp_path / str(cut), pack, idx[:cut])
            with pytest.raises(CorruptObject):
                Repository(path)

    def test_non_monotonic_fanout_rejected(self, tmp_path):
        pack, entries = self.small_pack()
        idx = bytearray(build_idx(entries))
        struct.pack_into(">I", idx, 8 + 4 * 255, 0)  # total below earlier buckets
        with pytest.raises(CorruptObject, match="fanout"):
            Repository(make_repo_with_pack(tmp_path, pack, bytes(idx)))

    def test_large_offset_index_out_of_range(self, tmp_path):
        pack, entries = self.small_pack()
        # One 64-bit offset entry, but the offset table points at entry 5.
        idx = bytearray(build_idx([(oid, 0x80000000 | 5) for oid, _ in entries[:1]]))
        idx[-40:-40] = struct.pack(">Q", entries[0][1])
        with pytest.raises(CorruptObject, match="large offset"):
            Repository(make_repo_with_pack(tmp_path, pack, bytes(idx)))

    def test_large_offset_in_range_resolves(self, tmp_path):
        pack, entries = self.small_pack()
        oid, offset = entries[0]
        idx = bytearray(build_idx([(oid, 0x80000000)]))
        idx[-40:-40] = struct.pack(">Q", offset)
        repo = Repository(make_repo_with_pack(tmp_path, pack, bytes(idx)))
        assert repo.read_object(oid).payload == b"A" * 50

    @pytest.mark.parametrize("slot", [0, 1])
    def test_large_offset_in_last_slot_checked_at_open(self, tmp_path, slot):
        # Every other entry is an ordinary 31-bit offset, so only the
        # last slot's high bit marks the index as having large offsets.
        pack, entries = self.small_pack()
        ordered = sorted(entries, key=lambda pair: pair[0].raw)
        (first, first_offset), (last, last_offset) = ordered
        idx = bytearray(build_idx([(first, first_offset), (last, 0x80000000 | slot)]))
        idx[-40:-40] = struct.pack(">Q", last_offset)
        path = make_repo_with_pack(tmp_path, pack, bytes(idx))
        if slot:
            with pytest.raises(CorruptObject, match="large offset"):
                Repository(path)
            return
        repo = Repository(path)
        for oid, _ in ordered:
            assert repo.read_object(oid).kind == "blob"

    @pytest.mark.parametrize("offset", [0, 11, "end"])
    def test_offset_outside_pack_rejected(self, tmp_path, offset):
        pack, entries = self.small_pack()
        oid = entries[0][0]
        if offset == "end":
            offset = len(pack) - 20
        repo = Repository(make_repo_with_pack(tmp_path, pack, build_idx([(oid, offset)])))
        with pytest.raises(CorruptObject, match="outside the pack"):
            repo.read_object(oid)


class TestApplyDelta:
    BASE = b"0123456789" * 5

    def delta(self, *ops, src=None, dst=None):
        out = bytearray([src if src is not None else len(self.BASE)])
        out.append(dst)
        for op in ops:
            out += op
        return bytes(out)

    def test_copy_and_insert(self):
        delta = self.delta(bytes([0x91, 10, 5]), b"\x03abc", dst=8)
        # copy 5 bytes from offset 10, then insert "abc"
        assert apply_delta(self.BASE, delta) == self.BASE[10:15] + b"abc"

    def test_base_size_mismatch(self):
        with pytest.raises(BadDelta):
            apply_delta(self.BASE, self.delta(b"\x01a", src=7, dst=1))

    def test_result_size_mismatch(self):
        with pytest.raises(BadDelta):
            apply_delta(self.BASE, self.delta(b"\x03abc", dst=99))

    def test_copy_out_of_range(self):
        delta = self.delta(bytes([0x91, 45, 20]), dst=20)
        with pytest.raises(BadDelta):
            apply_delta(self.BASE, delta)

    def test_reserved_instruction(self):
        with pytest.raises(BadDelta):
            apply_delta(self.BASE, self.delta(b"\x00", dst=1))

    def test_truncated_header(self):
        with pytest.raises(BadDelta):
            apply_delta(self.BASE, b"\xff")

    @pytest.mark.parametrize(
        "base,delta",
        [
            (b"abcd", bytes([4, 4, 0x91])),
            (BASE, bytes([len(BASE), 5, 0x91, 10])),
            (BASE, bytes([len(BASE), 5, 0xFF, 0, 0, 0, 0, 5, 0])),
        ],
        ids=["size-byte-missing", "size-byte-missing-long-base", "one-of-seven-missing"],
    )
    def test_truncated_copy_instruction(self, base, delta):
        with pytest.raises(BadDelta, match="truncated delta copy"):
            apply_delta(base, delta)

    def test_truncated_insert_rejected(self):
        # The insert claims 5 bytes and 3 follow, which is also the
        # declared result size.
        with pytest.raises(BadDelta, match="truncated delta insert"):
            apply_delta(self.BASE, self.delta(b"\x05abc", dst=3))

    def test_delta_bomb_rejected_before_growing(self):
        # 84 bytes that copy a 1 MiB base 40 times, declaring a 5-byte result.
        base = bytes(1 << 20)
        delta = bytes([0x80, 0x80, 0x40, 5]) + bytes([0xC0, 0x10]) * 40
        tracemalloc.start()
        try:
            with pytest.raises(BadDelta, match="exceeds its declared 5 bytes"):
                apply_delta(base, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10


def chain_object_id(depth: int) -> ObjectId:
    """Id of the object ``depth`` deltas above the base of a chain_pack."""
    return hash_object("blob", b"A" * 50 + b"X" * depth)


class TestDeltaBaseCache:
    def test_mid_chain_read_does_not_shorten_the_depth_bound(self, tmp_path):
        # Reading the 10th object caches the bases below it. The tip, 65
        # deltas up, reaches those cached bases at depth 56 and must
        # still count the 9 deltas below them.
        pack, offsets, base_id, tip_id, _ = chain_pack(depth=MAX_DELTA_DEPTH + 1)
        mid_id = chain_object_id(9)
        idx = build_idx([(base_id, offsets[0]), (mid_id, offsets[9]), (tip_id, offsets[-1])])
        repo = Repository(make_repo_with_pack(tmp_path, pack, idx))
        assert repo.read_object(mid_id).payload == b"A" * 50 + b"X" * 9
        with pytest.raises(BadDelta):
            repo.read_object(tip_id)

    def test_chain_at_bound_resolves_through_cached_bases(self, tmp_path):
        pack, offsets, base_id, tip_id, content = chain_pack(depth=MAX_DELTA_DEPTH)
        mid_id = chain_object_id(9)
        idx = build_idx([(base_id, offsets[0]), (mid_id, offsets[9]), (tip_id, offsets[-1])])
        repo = Repository(make_repo_with_pack(tmp_path, pack, idx))
        repo.read_object(mid_id)
        assert repo.read_object(tip_id).payload == content

    def test_cache_holds_no_more_than_its_bound(self, tmp_path, monkeypatch):
        # 20 bases of 50 to 69 bytes, 1,190 bytes together.
        bound = 300
        monkeypatch.setattr(pack_module, "BASE_CACHE_BYTES", bound)
        pack, offsets, base_id, tip_id, content = chain_pack(depth=20)
        idx = build_idx([(base_id, offsets[0]), (tip_id, offsets[-1])])
        repo = Repository(make_repo_with_pack(tmp_path, pack, idx))
        assert repo.read_object(tip_id).payload == content
        cache = repo._packs[0]._bases
        held = sum(len(payload) for _, payload, _ in cache.values())
        assert 0 < held <= bound
        assert held == repo._packs[0]._bases_bytes
        # The newest bases are the ones kept.
        assert max(cache) == offsets[-2]

    def test_concurrent_reads_keep_the_cache_within_its_bound(self, tmp_path, monkeypatch):
        # Readers of different chain levels insert and evict at once.
        bound = 400
        monkeypatch.setattr(pack_module, "BASE_CACHE_BYTES", bound)
        pack, offsets, base_id, tip_id, content = chain_pack(depth=30)
        levels = range(0, 31, 3)
        idx = build_idx([(chain_object_id(level), offsets[level]) for level in levels])
        repo = Repository(make_repo_with_pack(tmp_path, pack, idx))
        work = [level for level in levels for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                reads = pool.map(
                    lambda level: repo.read_object(chain_object_id(level)).payload, work, timeout=60
                )
                results = list(reads)
        finally:
            sys.setswitchinterval(interval)
        assert results == [b"A" * 50 + b"X" * level for level in work]
        pack_file = repo._packs[0]
        held = sum(len(payload) for _, payload, _ in pack_file._bases.values())
        assert held == pack_file._bases_bytes <= bound
