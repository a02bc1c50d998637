"""Read-only access to an on-disk git repository.

Covers loose objects (zlib-wrapped), version-2 packfiles with v2
indexes, loose and packed refs, and symbolic refs. Nothing here ever
writes to the repository. Every object read recomputes the SHA-1 and
refuses to return data whose digest does not match the requested id.
"""

from __future__ import annotations

import os
import sys
import zlib

from gitvouch.gitstore import refs as _refs
from gitvouch.gitstore.objects import (
    OBJECT_KINDS,
    CorruptObject,
    ObjectId,
    ObjectNotFound,
    RawObject,
    checked_object,
    hash_object,
)
from gitvouch.gitstore.pack import PackFile

# Longest loose-object header read, ``<kind> <decimal size>\0``; git
# uses the same bound.
_MAX_HEADER = 32


class Repository:
    """Handle on a local repository (bare or not)."""

    def __init__(self, path: str) -> None:
        gitdir = os.path.join(path, ".git")
        if os.path.isdir(gitdir):
            path = gitdir
        if not os.path.isdir(os.path.join(path, "objects")):
            raise ObjectNotFound(f"{path}: not a git repository (no objects/)")
        self.git_dir = path
        self._objects_dir = os.path.join(path, "objects")
        self._packs = self._open_packs()

    def _open_packs(self) -> list[PackFile]:
        pack_dir = os.path.join(self._objects_dir, "pack")
        packs = []
        if os.path.isdir(pack_dir):
            for name in sorted(os.listdir(pack_dir)):
                if name.endswith(".idx"):
                    pack_path = os.path.join(pack_dir, name[:-4] + ".pack")
                    if os.path.exists(pack_path):
                        packs.append(PackFile(pack_path, os.path.join(pack_dir, name)))
        return packs

    # -- objects --------------------------------------------------------

    def read_object(self, oid: ObjectId) -> RawObject:
        kind, payload = self._read_raw(oid)
        if hash_object(kind, payload) != oid:
            raise CorruptObject(f"digest mismatch for {oid}")
        # Both readers return only the kinds a RawObject may have.
        return checked_object((kind, payload))

    def _read_raw(self, oid: ObjectId, depth: int = 0) -> tuple[str, bytes]:
        # Also the packs' reference-delta resolver: a base may live
        # anywhere, in the same pack, in another one or loose. ``depth``
        # carries the delta depth across those lookups, so the packs'
        # MAX_DELTA_DEPTH bound ends any ref-delta cycle. Packs come
        # first: most objects of a cloned repository are packed, and
        # either copy is hash-checked, so the order cannot change a
        # result.
        for pack in self._packs:
            found = pack.get(oid, self._read_raw, depth)
            if found is not None:
                return found
        loose = self._read_loose(oid)
        if loose is not None:
            return loose
        raise ObjectNotFound(f"no object {oid}")

    def _read_loose(self, oid: ObjectId) -> tuple[str, bytes] | None:
        hexid = oid.hex
        path = os.path.join(self._objects_dir, hexid[:2], hexid[2:])
        try:
            with open(path, "rb") as fh:
                compressed = fh.read()
        except FileNotFoundError:
            return None
        decomp = zlib.decompressobj()
        try:
            # The header is inflated first, and the payload then no
            # further than one byte past the length it declares.
            data = decomp.decompress(compressed, _MAX_HEADER)
            nul = data.find(b"\x00")
            if nul < 0:
                raise CorruptObject(f"{path}: missing header terminator")
            header = data[:nul]
            try:
                kind_b, length_b = header.split(b" ", 1)
                kind = kind_b.decode("ascii")
                length = int(length_b)
            except (ValueError, UnicodeDecodeError) as exc:
                raise CorruptObject(f"{path}: malformed header {header!r}") from exc
            if kind not in OBJECT_KINDS:
                raise CorruptObject(f"{path}: unknown kind {kind!r}")
            payload = data[nul + 1 :]
            if len(payload) <= length:
                payload += decomp.decompress(
                    decomp.unconsumed_tail, min(length + 1 - len(payload), sys.maxsize)
                )
        except zlib.error as exc:
            raise CorruptObject(f"{path}: undecodable loose object: {exc}") from exc
        if len(payload) != length:
            raise CorruptObject(f"{path}: payload length mismatch")
        if not decomp.eof:
            raise CorruptObject(f"{path}: undecodable loose object: truncated stream")
        return kind, payload

    # -- refs -----------------------------------------------------------

    def _ref_target(self, name: str):
        path = os.path.join(self.git_dir, *name.split("/"))
        try:
            with open(path, "rb") as fh:
                content = fh.read().strip()
        except (FileNotFoundError, NotADirectoryError):
            content = None
        if content is not None:
            try:
                if content.startswith(b"ref: "):
                    return content[5:].decode("utf-8")
                return ObjectId.from_hex(content.decode("ascii"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise CorruptObject(f"{path}: malformed ref content") from exc
        return self._packed_refs().get(name)

    def _packed_refs(self) -> dict[str, ObjectId]:
        refs: dict[str, ObjectId] = {}
        try:
            with open(os.path.join(self.git_dir, "packed-refs"), "rb") as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith(b"#") or line.startswith(b"^"):
                        continue
                    try:
                        hexid, name = line.split(b" ", 1)
                        refs[name.decode("utf-8")] = ObjectId.from_hex(hexid.decode())
                    except ValueError:
                        continue
        except FileNotFoundError:
            pass
        return refs

    def resolve_ref(self, name: str) -> ObjectId:
        return _refs.resolve_ref(self, name)
