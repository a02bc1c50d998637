"""Git object model: ids, raw objects, commit and tree parsing.

Everything here is pure byte manipulation; no I/O. A parsed commit keeps
its raw payload and the byte range of its ``gpgsig`` header, so the
bytes its signature covers are the payload with that range cut out.
"""

from __future__ import annotations

import hashlib
import re
from binascii import unhexlify
from dataclasses import dataclass, field
from operator import itemgetter

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


class ObjectId(tuple):
    """A 20-byte SHA-1 object name.

    A one-element tuple holding the raw bytes, so hashing, equality and
    ordering, which every graph walk does several times per commit, run
    in C. Ids compare by their raw bytes.
    """

    __slots__ = ()

    def __new__(cls, raw: bytes) -> "ObjectId":
        if not isinstance(raw, bytes) or len(raw) != 20:
            raise ValueError(f"object id must be exactly 20 bytes, got {raw!r}")
        return tuple.__new__(cls, (raw,))

    def __getnewargs__(self) -> tuple[bytes]:
        return (self[0],)

    raw = property(itemgetter(0), doc="The 20 raw bytes.")

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
        return self[0].hex()

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
    h = hashlib.sha1(b"%s %d\x00" % (kind.encode("ascii"), len(payload)))
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


# A commit as git writes it without extra headers: tree, parents,
# author, committer and at most a gpgsig header, with no continuation
# lines but the signature's, then the blank line. ``parse_commit``
# reads this shape in one match; ``_parse_headers`` reads any shape and
# gives the same result for this one.
_TYPICAL_HEAD_RE = re.compile(
    rb"tree ([0-9a-fA-F]{40})\n"
    rb"((?:parent [0-9a-fA-F]{40}\n)*)"
    rb"author [^\n]*\n"
    rb"committer [^\n]*\n"
    rb"(gpgsig [^\n]*(?:\n [^\n]*)*\n)?"
    rb"\n"
)
# The end of a header: a newline that no continuation line follows.
_HEADER_END_RE = re.compile(rb"\n(?! )")


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
    typical = _TYPICAL_HEAD_RE.match(payload)
    if typical is not None:
        tree = ObjectId(unhexlify(typical[1]))
        lines = typical[2]
        parents = tuple(
            ObjectId(unhexlify(lines[i + 7 : i + 47])) for i in range(0, len(lines), 48)
        )
        span = typical.span(3) if typical[3] is not None else None
    else:
        tree, parents, span = _parse_headers(payload)
    signature = None
    if span is not None:
        # Unfolded: a line holds no newline, so every "\n " starts a
        # continuation line.
        start, stop = span
        value = payload[start + len(b"gpgsig ") : stop - 1].replace(b"\n ", b"\n")
        signature = value.decode("utf-8", "replace")

    return Commit(
        id=oid if oid is not None else hash_object("commit", payload),
        tree=tree,
        parents=parents,
        signature=signature,
        raw_payload=payload,
        gpgsig_span=span,
    )


def _parse_headers(
    payload: bytes,
) -> tuple[ObjectId, tuple[ObjectId, ...], tuple[int, int] | None]:
    """The tree, the parents and the ``gpgsig`` header's span of a commit
    payload of any shape, every header checked for shape and order."""
    n = len(payload)
    names: list[bytes] = []
    # Value spans of the tree and parent headers, continuation lines
    # included; the other headers are only checked.
    ids: list[tuple[int, int]] = []
    sig_spans: list[tuple[int, int]] = []
    pos = 0
    while True:
        if pos >= n:
            raise MalformedCommit("no blank line separating headers from message")
        if payload[pos] == 0x0A:
            break
        end = _HEADER_END_RE.search(payload, pos)
        if end is None:
            if payload.find(b"\n", pos) < 0:
                raise MalformedCommit("header line without newline")
            raise MalformedCommit("continuation line without newline")
        end = end.end()
        space = payload.find(b" ", pos, end)
        if space == pos:
            raise MalformedCommit("continuation line without a preceding header")
        name = payload[pos:space]
        if space < 0 or b"\n" in name:
            line = payload[pos : payload.find(b"\n", pos)]
            raise MalformedCommit(f"malformed header line {line!r}")
        names.append(name)
        if name == b"tree" or name == b"parent":
            ids.append((space + 1, end - 1))
        elif name == b"gpgsig":
            sig_spans.append((pos, end))
        pos = end

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

    def oid_of(start: int, stop: int, what: str) -> ObjectId:
        value = payload[start:stop]
        if len(value) == 40:
            try:
                return ObjectId(unhexlify(value))
            except ValueError:
                pass
        value = value.replace(b"\n ", b"\n")
        raise MalformedCommit(f"bad {what} id {value!r}")

    tree = oid_of(*ids[0], "tree")
    parents = tuple(oid_of(start, stop, "parent") for start, stop in ids[1:])
    if len(sig_spans) > 1:
        raise MalformedCommit("multiple 'gpgsig' headers")
    return tree, parents, sig_spans[0] if sig_spans else None


def signed_payload(commit: Commit) -> bytes:
    """The bytes a commit signature covers: the payload minus its ``gpgsig``
    header (continuation lines included). Unsigned commits are returned
    unchanged."""
    if commit.gpgsig_span is None:
        return commit.raw_payload
    start, end = commit.gpgsig_span
    return commit.raw_payload[:start] + commit.raw_payload[end:]
