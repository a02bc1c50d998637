"""Commit-graph queries: ancestry, reachability difference, tree reads.

These operate on any object store exposing ``read_object``. The
difference traversal is what keeps authentication incremental: it stops
at already-trusted commits and never visits what lies behind them.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Container, Iterator

from gitvouch.gitstore.objects import (
    Commit,
    ObjectId,
    checked_id,
    parse_commit,
    tree_entries,
)


def read_commit(store, oid: ObjectId) -> Commit:
    # The store has checked the payload against ``oid``: no second hash.
    return parse_commit(store.read_object(oid), oid)


def ancestor_steps(
    store,
    a: ObjectId,
    b: ObjectId,
    generation: Callable[[ObjectId], int | None] | None = None,
) -> Iterator[bool]:
    """Breadth-first walk from ``b`` looking for a strict ancestor ``a``,
    one commit read per step: yields True and stops when a commit read
    names ``a`` as a parent, yields False otherwise, and ends when the
    history below ``b`` is spent. Lets a caller interleave two walks.

    ``generation`` gives an id's generation number, or None. When it
    numbers ``a``, the walk never reads a commit it numbers no higher
    than ``a``: a strict ancestor's number is always lower than its
    descendant's, so true numbers lose nothing, and false ones can only
    hide ``a``. An id it does not number is walked as without it, so a
    branch outside the numbered history, such as one forked before the
    introduction and merged after it, costs about as many levels as the
    walk takes to find ``a``.
    """
    floor = generation(a) if generation is not None else None
    seen = {b}
    queue = deque([b])
    while queue:
        oid = queue.popleft()
        if floor is not None:
            gen = generation(oid)
            if gen is not None and gen <= floor:
                continue
        parents = read_commit(store, oid).parents
        if a in parents:
            yield True
            return
        for parent in parents:
            if parent not in seen:
                seen.add(parent)
                queue.append(parent)
        yield False


def commit_difference(store, target: ObjectId, stop: Container[ObjectId]) -> list[Commit]:
    """Commits reachable from ``target`` without passing through an id in
    ``stop``, topologically ordered parents-before-children.

    ``stop`` is only asked ``in``, never iterated, so it may stand for a
    large set, such as a whole history's cache, at no cost per member.

    The walk never reads a stop id, so ids in ``stop`` that are absent
    from the store, or that do not name commits, cost nothing. When
    ``stop`` is closed under parents the result is exactly the commits
    reachable from ``target`` and from no stop id. The target itself is
    always read, so an absent target raises ``ObjectNotFound``; a target
    in ``stop`` gives an empty list.
    """
    if target in stop:
        store.read_object(target)
        return []

    commits: dict[ObjectId, Commit] = {}
    queue = deque([target])
    seen = {target}
    while queue:
        oid = queue.popleft()
        commit = read_commit(store, oid)
        commits[oid] = commit
        for parent in commit.parents:
            if parent not in stop and parent not in seen:
                seen.add(parent)
                queue.append(parent)

    # Kahn's algorithm over the visited subgraph, parents first.
    children: dict[ObjectId, list[ObjectId]] = {}
    indegree = {}
    for oid, commit in commits.items():
        inside = 0
        for parent in commit.parents:
            if parent in commits:
                inside += 1
                children.setdefault(parent, []).append(oid)
        indegree[oid] = inside
    ready = deque(sorted(o for o, d in indegree.items() if d == 0))
    ordered: list[Commit] = []
    while ready:
        oid = ready.popleft()
        ordered.append(commits[oid])
        for child in children.get(oid, ()):
            left = indegree[child] - 1
            indegree[child] = left
            if not left:
                ready.append(child)
    return ordered


def read_path_at_commit(store, commit_id: ObjectId, path: str) -> bytes | None:
    """Blob bytes for ``path`` in the tree of ``commit_id``, or None when
    any path component is missing, the path names a tree, or its entry
    names an object that is not a blob."""
    entry = path_entry(store, read_commit(store, commit_id).tree, path)
    if entry is None:
        return None
    blob = store.read_object(entry)
    return blob.payload if blob.kind == "blob" else None


def path_entry(store, tree: ObjectId, path: str) -> ObjectId | None:
    """Id that the entry for ``path`` under ``tree`` names, or None when
    any path component is missing or the path names a tree.

    The id is not read, so the caller decides what an id that is not a
    blob means.
    """
    try:
        # Tree names are read as UTF-8 with surrogate escapes, so a
        # component that does not encode back names no entry.
        parts = [p.encode("utf-8", "surrogateescape") for p in path.split("/") if p]
    except UnicodeEncodeError:
        return None
    for i, part in enumerate(parts):
        entries = tree_entries(store.read_object(tree).payload)
        for mode, name, raw in entries:
            if name == part:
                break
        else:
            return None
        # Every component but the last must name a tree; the last must not.
        if (mode == b"40000") == (i == len(parts) - 1):
            return None
        tree = checked_id((raw,))
    return tree if parts else None
