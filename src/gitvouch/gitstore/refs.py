"""Ref resolution shared by the on-disk and in-memory backends.

A backend only has to provide ``_ref_target(name)`` returning one hop:
an ObjectId, a ``"ref: <target>"`` style symref target string, or None.
"""

from __future__ import annotations

from gitvouch.gitstore.objects import (
    CorruptObject,
    ObjectId,
    ObjectNotFound,
    RawObject,
    SymrefLoop,
)

MAX_SYMREF_HOPS = 16
MAX_TAG_DEPTH = 16


def peel_to_commit(store, oid: ObjectId) -> ObjectId:
    """Follow annotated tags until a non-tag object is reached."""
    for _ in range(MAX_TAG_DEPTH):
        obj = store.read_object(oid)
        if obj.kind != "tag":
            return oid
        oid = _tag_target(obj)
    raise SymrefLoop(f"tag chain deeper than {MAX_TAG_DEPTH}")


def _tag_target(obj: RawObject) -> ObjectId:
    for line in obj.payload.split(b"\n"):
        if line.startswith(b"object "):
            try:
                return ObjectId.from_hex(line[7:])
            except ValueError as exc:
                raise CorruptObject(f"tag object: {exc}") from None
        if line == b"":
            break
    raise ObjectNotFound("tag object without 'object' header")


def resolve_ref(store, name: str) -> ObjectId:
    """Resolve a full ref name (or ``HEAD``) to a commit id.

    Follows symbolic refs (at most MAX_SYMREF_HOPS hops) and peels
    annotated tags.
    """
    current = name
    for _ in range(MAX_SYMREF_HOPS + 1):
        target = store._ref_target(current)
        if target is None:
            raise ObjectNotFound(f"ref not found: {name}")
        if isinstance(target, ObjectId):
            return peel_to_commit(store, target)
        current = target
    raise SymrefLoop(f"symbolic ref chain from {name} exceeds {MAX_SYMREF_HOPS} hops")
