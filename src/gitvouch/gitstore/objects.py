"""Git object model: ids, raw objects, commit and tree parsing.

Everything here is pure byte manipulation; no I/O. A parsed commit keeps
its raw payload and the byte range of its ``gpgsig`` header, so the
bytes its signature covers are the payload with that range cut out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from gitvouch.errors import VouchError

OBJECT_KINDS = ("commit", "tree", "blob", "tag")


class GitStoreError(VouchError):
    """Base for object-store errors."""


class ObjectNotFound(GitStoreError):
    pass


class CorruptObject(GitStoreError):
    pass


class BadDelta(GitStoreError):
    pass


class MalformedCommit(GitStoreError):
    pass


class NotACommit(GitStoreError):
    pass


class SymrefLoop(GitStoreError):
    pass


@dataclass(frozen=True, order=True)
class ObjectId:
    """A 20-byte SHA-1 object name."""

    raw: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.raw, bytes) or len(self.raw) != 20:
            raise ValueError(f"object id must be exactly 20 bytes, got {self.raw!r}")

    @classmethod
    def from_hex(cls, text: str | bytes) -> "ObjectId":
        if isinstance(text, bytes):
            text = text.decode("ascii", "replace")
        if len(text) != 40:
            raise ValueError(f"object id must be 40 hex digits, got {len(text)}")
        try:
            return cls(bytes.fromhex(text))
        except ValueError:
            raise ValueError(f"invalid hex object id: {text!r}") from None

    @property
    def hex(self) -> str:
        return self.raw.hex()

    def __str__(self) -> str:
        return self.hex

    def __repr__(self) -> str:
        return f"ObjectId({self.hex})"


@dataclass(frozen=True)
class RawObject:
    """An object as stored: its kind and uncompressed payload."""

    kind: str
    payload: bytes

    def __post_init__(self) -> None:
        if self.kind not in OBJECT_KINDS:
            raise ValueError(f"unknown object kind {self.kind!r}")


def hash_object(kind: str, payload: bytes) -> ObjectId:
    """Object id: SHA-1 over ``"<kind> <len>\\0"`` + payload."""
    h = hashlib.sha1()
    h.update(b"%s %d\x00" % (kind.encode("ascii"), len(payload)))
    h.update(payload)
    return ObjectId(h.digest())


@dataclass(frozen=True)
class TreeEntry:
    mode: str
    name: str
    id: ObjectId

    @property
    def is_tree(self) -> bool:
        return self.mode == "40000"


def parse_tree(payload: bytes) -> list[TreeEntry]:
    """Parse a tree payload: ``<mode> <name>\\0<20-byte id>`` records."""
    entries = []
    seen: set[bytes] = set()
    pos = 0
    while pos < len(payload):
        space = payload.find(b" ", pos)
        nul = payload.find(b"\x00", pos)
        if space < 0 or nul < 0 or nul < space or nul + 21 > len(payload):
            raise CorruptObject(f"truncated tree entry at offset {pos}")
        name = payload[space + 1 : nul]
        if name in seen:
            raise CorruptObject(f"duplicate tree entry {name!r}")
        seen.add(name)
        try:
            mode = payload[pos:space].decode("ascii")
        except UnicodeDecodeError:
            raise CorruptObject(f"non-ASCII mode in tree entry at offset {pos}") from None
        entries.append(
            TreeEntry(
                mode=mode,
                name=name.decode("utf-8", "surrogateescape"),
                id=ObjectId(payload[nul + 1 : nul + 21]),
            )
        )
        pos = nul + 21
    return entries


def serialize_tree(entries: list[TreeEntry]) -> bytes:
    """Inverse of parse_tree; entries are sorted the way git sorts them."""

    def sort_key(e: TreeEntry) -> bytes:
        name = e.name.encode("utf-8", "surrogateescape")
        return name + b"/" if e.is_tree else name

    out = bytearray()
    for e in sorted(entries, key=sort_key):
        out += e.mode.encode("ascii")
        out += b" "
        out += e.name.encode("utf-8", "surrogateescape")
        out += b"\x00"
        out += e.id.raw
    return bytes(out)


@dataclass(frozen=True)
class Commit:
    """A parsed commit: what the authentication rule reads, and the raw
    payload.

    ``signature`` is the reassembled armored block from the ``gpgsig``
    header, if any, and ``gpgsig_span`` is that header's ``(start, end)``
    byte range in ``raw_payload``, continuation lines included.
    """

    id: ObjectId
    tree: ObjectId
    parents: tuple[ObjectId, ...]
    signature: str | None
    raw_payload: bytes = field(repr=False)
    gpgsig_span: tuple[int, int] | None = field(repr=False)


def parse_commit(obj: RawObject, oid: ObjectId | None = None) -> Commit:
    """Parse a commit payload.

    Header order is enforced: ``tree``, then ``parent`` lines, then
    ``author`` and ``committer``; any further headers (``gpgsig``,
    ``encoding``, ...) follow. ``oid`` is the id ``obj`` was read under,
    from a store that checked it against the payload's hash; without
    it, the payload is hashed here.
    """
    if obj.kind != "commit":
        raise NotACommit(f"expected a commit, got {obj.kind}")
    payload = obj.payload
    n = len(payload)
    names: list[bytes] = []
    values: list[bytes] = []
    sig_spans: list[tuple[int, int]] = []
    pos = 0
    while True:
        if pos >= n:
            raise MalformedCommit("no blank line separating headers from message")
        if payload[pos] == 0x0A:
            break
        start = pos
        eol = payload.find(b"\n", pos)
        if eol < 0:
            raise MalformedCommit("header line without newline")
        space = payload.find(b" ", pos, eol)
        if space == pos:
            raise MalformedCommit("continuation line without a preceding header")
        if space < 0:
            raise MalformedCommit(f"malformed header line {payload[pos:eol]!r}")
        pos = eol + 1
        # Continuation lines carry one leading space per line.
        while pos < n and payload[pos] == 0x20:
            eol = payload.find(b"\n", pos)
            if eol < 0:
                raise MalformedCommit("continuation line without newline")
            pos = eol + 1
        name = payload[start:space]
        names.append(name)
        # Unfolded value: a line holds no newline, so every "\n " starts
        # a continuation line.
        values.append(payload[space + 1 : pos - 1].replace(b"\n ", b"\n"))
        if name == b"gpgsig":
            sig_spans.append((start, pos))

    if not names or names[0] != b"tree":
        raise MalformedCommit("first header must be 'tree'")
    if names.count(b"tree") != 1:
        raise MalformedCommit("multiple 'tree' headers")
    idx = 1
    while idx < len(names) and names[idx] == b"parent":
        idx += 1
    if b"parent" in names[idx:]:
        raise MalformedCommit("'parent' header out of order")
    if idx >= len(names) or names[idx] != b"author":
        raise MalformedCommit("missing 'author' header")
    if idx + 1 >= len(names) or names[idx + 1] != b"committer":
        raise MalformedCommit("missing 'committer' header")

    def oid_of(value: bytes, what: str) -> ObjectId:
        try:
            return ObjectId.from_hex(value)
        except ValueError:
            raise MalformedCommit(f"bad {what} id {value!r}") from None

    tree = oid_of(values[0], "tree")
    parents = tuple(oid_of(v, "parent") for v in values[1:idx])

    if len(sig_spans) > 1:
        raise MalformedCommit("multiple 'gpgsig' headers")
    span = sig_spans[0] if sig_spans else None
    signature = None
    if span is not None:
        signature = values[names.index(b"gpgsig")].decode("utf-8", "replace")

    return Commit(
        id=oid if oid is not None else hash_object("commit", payload),
        tree=tree,
        parents=parents,
        signature=signature,
        raw_payload=payload,
        gpgsig_span=span,
    )


def signed_payload(commit: Commit) -> bytes:
    """The bytes a commit signature covers: the payload minus its ``gpgsig``
    header (continuation lines included). Unsigned commits are returned
    unchanged."""
    if commit.gpgsig_span is None:
        return commit.raw_payload
    start, end = commit.gpgsig_span
    return commit.raw_payload[:start] + commit.raw_payload[end:]
