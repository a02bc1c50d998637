"""The header loop ``parse_commit`` once used: the reference for its grammar.

``gitvouch.gitstore.objects.parse_commit`` reads a commit's header
block with one regular expression. This is the loop it replaced, kept
verbatim: it reads one header at a time and then checks their names
and order. For every payload the two must agree, raising
``MalformedCommit`` on the same payloads and otherwise giving the same
tree, parents and ``gpgsig`` span (``tests/test_objects.py`` compares
them).
"""

from __future__ import annotations

import re
from binascii import unhexlify

from gitvouch.gitstore.objects import MalformedCommit, ObjectId

# The end of a header: a newline that no continuation line follows.
_HEADER_END_RE = re.compile(rb"\n(?! )")


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
