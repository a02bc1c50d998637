"""Read-only git object database access and commit-graph queries."""

from gitvouch.gitstore.graph import (
    commit_difference,
    path_entry,
    read_commit,
    read_path_at_commit,
)
from gitvouch.gitstore.memstore import MemoryStore
from gitvouch.gitstore.objects import (
    BadDelta,
    Commit,
    CorruptObject,
    GitStoreError,
    MalformedCommit,
    NotACommit,
    ObjectId,
    ObjectNotFound,
    RawObject,
    SymrefLoop,
    TreeEntry,
    hash_object,
    parse_commit,
    parse_tree,
    serialize_tree,
    signed_payload,
)
from gitvouch.gitstore.repository import Repository

__all__ = [
    "BadDelta",
    "Commit",
    "CorruptObject",
    "GitStoreError",
    "MalformedCommit",
    "MemoryStore",
    "NotACommit",
    "ObjectId",
    "ObjectNotFound",
    "RawObject",
    "Repository",
    "SymrefLoop",
    "TreeEntry",
    "commit_difference",
    "hash_object",
    "parse_commit",
    "parse_tree",
    "path_entry",
    "read_commit",
    "read_path_at_commit",
    "serialize_tree",
    "signed_payload",
]
