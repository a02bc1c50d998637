"""Git object model: ids, raw objects, commit and tree parsing.

Everything here is pure byte manipulation; no I/O. A parsed commit keeps
its raw payload and the byte range of its ``gpgsig`` header, so the
bytes its signature covers are the payload with that range cut out.
"""

from __future__ import annotations

import re
from binascii import unhexlify
from functools import partial
from hashlib import sha1
from operator import itemgetter
from typing import NamedTuple

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


class _RawObject(NamedTuple):
    kind: str
    payload: bytes


class RawObject(_RawObject):
    """An object as stored: its kind and uncompressed payload.

    A tuple, like :class:`ObjectId`; the constructor checks the kind.
    """

    __slots__ = ()

    def __new__(cls, kind: str, payload: bytes) -> "RawObject":
        if kind not in OBJECT_KINDS:
            raise ValueError(f"unknown object kind {kind!r}")
        return tuple.__new__(cls, (kind, payload))


# The trusted factories: each builds its type from fields a reader has
# already checked (a digest, an id its grammar matched, a kind both
# object readers return) without running the constructor's check again.
# They take the fields as one tuple, ``checked_id((raw,))``, and run in
# C; every other caller goes through the checking constructors.
checked_id = partial(tuple.__new__, ObjectId)
checked_object = partial(tuple.__new__, RawObject)


def hash_object(kind: str, payload: bytes) -> ObjectId:
    """Object id: SHA-1 over ``"<kind> <len>\\0"`` + payload."""
    h = sha1(b"%s %d\x00" % (kind.encode("ascii"), len(payload)))
    h.update(payload)
    return checked_id((h.digest(),))


class TreeEntry(NamedTuple):
    mode: str
    name: str
    id: ObjectId

    @property
    def is_tree(self) -> bool:
        return self.mode == "40000"


# One tree entry: ``<mode> <name>\\0<20-byte id>``. The mode is ASCII
# without a space or a NUL, and the name any bytes without a NUL, so
# each entry ends where the one before it says, and the whole tree
# matches in time linear in its length.
_ENTRY = rb"([\x01-\x1f!-\x7f]*) ([^\x00]*)\x00(.{20})"
_ENTRY_RE = re.compile(_ENTRY, re.DOTALL)
_TREE_RE = re.compile(rb"(?:%s)*" % _ENTRY, re.DOTALL)
_NAME = itemgetter(1)


def tree_entries(payload: bytes) -> list[tuple[bytes, bytes, bytes]]:
    """The ``(mode, name, raw id)`` byte strings of every entry of a tree
    payload, in order, after checking the whole payload: every entry
    whole, every mode ASCII, no name twice. Raises ``CorruptObject``
    naming the first entry, in order, that breaks a rule."""
    if _TREE_RE.fullmatch(payload) is not None:
        entries = _ENTRY_RE.findall(payload)
        if len(set(map(_NAME, entries))) == len(entries):
            return entries
    raise _tree_error(payload)


def _tree_error(payload: bytes) -> CorruptObject:
    """The error for a payload :func:`tree_entries` refuses."""
    seen: set[bytes] = set()
    pos = 0
    while True:
        entry = _ENTRY_RE.match(payload, pos)
        if entry is None:
            break
        if entry[2] in seen:
            return CorruptObject(f"duplicate tree entry {entry[2]!r}")
        seen.add(entry[2])
        pos = entry.end()
    # The entry at ``pos`` is cut short, or its mode is not ASCII.
    space = payload.find(b" ", pos)
    nul = payload.find(b"\x00", pos)
    if space < 0 or nul < 0 or nul < space or nul + 21 > len(payload):
        return CorruptObject(f"truncated tree entry at offset {pos}")
    name = payload[space + 1 : nul]
    if name in seen:
        return CorruptObject(f"duplicate tree entry {name!r}")
    return CorruptObject(f"non-ASCII mode in tree entry at offset {pos}")


def parse_tree(payload: bytes) -> list[TreeEntry]:
    """Parse a tree payload: ``<mode> <name>\\0<20-byte id>`` records."""
    return [
        TreeEntry(
            mode=mode.decode("ascii"),
            name=name.decode("utf-8", "surrogateescape"),
            id=checked_id((raw,)),
        )
        for mode, name, raw in tree_entries(payload)
    ]


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


class Commit(NamedTuple):
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
    raw_payload: bytes
    gpgsig_span: tuple[int, int] | None

    def __repr__(self) -> str:
        return (f"Commit(id={self.id!r}, tree={self.tree!r}, parents={self.parents!r}, "
                f"signature={self.signature!r})")


# Commit's factory for parse_commit, which builds one per commit read:
# the fields in order, as one tuple, built in C rather than by the
# NamedTuple's generated ``__new__``.
_new_commit = partial(tuple.__new__, Commit)


# The header block of a commit, through the empty line that ends it:
# ``tree``, then ``parent`` lines, then ``author`` and ``committer``,
# then any headers but ``tree`` and ``parent``, at most one of them
# ``gpgsig`` (group 3). A header is ``<name> <value>`` where the name
# holds no space; a line that starts with a space continues the header
# before it, and a header line never starts with one, so a match takes
# time linear in the payload. Only ``tree`` and ``parent`` may not
# continue.
_OTHER = rb"(?!tree |parent |gpgsig )[^ \n]+ [^\n]*\n(?: [^\n]*\n)*"
_HEAD_RE = re.compile(
    rb"tree ([0-9a-fA-F]{40})\n"
    rb"((?:parent [0-9a-fA-F]{40}\n)*)"
    rb"author [^\n]*\n(?: [^\n]*\n)*"
    rb"committer [^\n]*\n(?: [^\n]*\n)*"
    rb"(?:%s)*(?:(gpgsig [^\n]*\n(?: [^\n]*\n)*)(?:%s)*)?"
    rb"\n" % (_OTHER, _OTHER)
)


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
    head = _HEAD_RE.match(payload)
    if head is None:
        raise MalformedCommit("headers are not tree, parents, author, committer, "
                              "then others with at most one gpgsig, then an empty line")
    signature = None
    span = None
    if head[3] is not None:
        # Unfolded: a line holds no newline, so every "\n " starts a
        # continuation line.
        start, stop = span = head.span(3)
        value = payload[start + len(b"gpgsig ") : stop - 1].replace(b"\n ", b"\n")
        signature = value.decode("utf-8", "replace")

    # The grammar matched every id: 40 hex digits.
    return _new_commit((
        oid if oid is not None else hash_object("commit", payload),  # id
        checked_id((unhexlify(head[1]),)),  # tree
        tuple([checked_id((unhexlify(line[7:]),)) for line in head[2].splitlines()]),  # parents
        signature,
        payload,  # raw_payload
        span,  # gpgsig_span
    ))


def signed_payload(commit: Commit) -> bytes:
    """The bytes a commit signature covers: the payload minus its ``gpgsig``
    header (continuation lines included). Unsigned commits are returned
    unchanged."""
    if commit.gpgsig_span is None:
        return commit.raw_payload
    start, end = commit.gpgsig_span
    return commit.raw_payload[:start] + commit.raw_payload[end:]
