"""The loop ``parse_tree`` once used: the reference for the tree grammar.

``gitvouch.gitstore.objects`` reads a tree payload with one compiled
grammar, shared by ``parse_tree`` and ``graph.path_entry``. This is the
loop it replaced, kept as it was: it reads one entry at a time. For
every payload the two must agree, raising the same ``CorruptObject`` on
the same payloads and otherwise giving the same entries
(``tests/test_objects.py`` compares them).
"""

from __future__ import annotations

from gitvouch.gitstore.objects import CorruptObject


def parse_tree(payload: bytes) -> list[tuple[str, str, bytes]]:
    """``(mode, name, raw id)`` of each ``<mode> <name>\\0<20-byte id>``
    record."""
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
            (mode, name.decode("utf-8", "surrogateescape"), payload[nul + 1 : nul + 21])
        )
        pos = nul + 21
    return entries
