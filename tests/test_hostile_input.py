"""Hostile bytes from a server: mutated deltas, loose object files, and
pack and index files must give a correct value or fail with a
``VouchError``, never another exception."""

import os
import shutil
import subprocess
import zlib
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gitvouch.authgraph import authenticate_repository
from gitvouch.errors import VouchError
from gitvouch.gitstore import Repository, hash_object, read_commit
from gitvouch.gitstore.pack import apply_delta

import fixtures

HAVE_GIT = shutil.which("git") is not None

# Bytes flipped, inserted, deleted or cut off, at positions taken
# modulo the length.
edits = st.lists(
    st.tuples(st.sampled_from(["flip", "insert", "delete", "cut"]),
              st.integers(0, 1 << 16), st.integers(0, 255)),
    min_size=1, max_size=6)


def mutate(data: bytes, changes) -> bytes:
    out = bytearray(data)
    for op, pos, byte in changes:
        pos %= len(out) + 1
        if op == "flip" and pos < len(out):
            out[pos] ^= byte or 1
        elif op == "insert":
            out.insert(pos, byte)
        elif op == "delete":
            del out[pos:pos + 1 + byte % 4]
        elif op == "cut":
            del out[pos:]
    return bytes(out)


@contextmanager
def replaced(path: str, data: bytes):
    """``data`` in place of the file at ``path`` until the block ends."""
    with open(path, "rb") as fh:
        saved = fh.read()
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        yield
    finally:
        with open(path, "wb") as fh:
            fh.write(saved)


# A 512-byte base; the delta copies 150 bytes from offset 300 (two-byte
# size varints, a two-byte offset), then inserts "hello".
BASE = bytes(range(256)) * 2
DELTA = b"\x80\x04" + b"\x9b\x01" + bytes([0x80 | 0x01 | 0x02 | 0x10, 0x2C, 0x01, 150]) + b"\x05hello"


@given(changes=edits)
@settings(max_examples=300, deadline=None)
def test_mutated_deltas_apply_or_fail_closed(changes):
    assert apply_delta(BASE, DELTA) == BASE[300:450] + b"hello"
    try:
        result = apply_delta(BASE, mutate(DELTA, changes))
    except VouchError:
        return
    assert isinstance(result, (bytes, bytearray))


@pytest.fixture(scope="module")
def loose_repo(tmp_path_factory):
    """fig4 exported as loose objects, and one commit, tree and blob of
    it by file path."""
    fig = fixtures.fig4()
    path = fixtures.export_to_disk(fig.store, str(tmp_path_factory.mktemp("loose")))
    tree = read_commit(fig.store, fig.f).tree
    blob = next(oid for oid, obj in fig.store.objects() if obj.kind == "blob")
    return path, [fig.f, tree, blob]


@given(which=st.integers(0, 2), inflated=st.booleans(), changes=edits)
@settings(max_examples=200, deadline=None)
def test_mutated_loose_objects_read_or_fail_closed(loose_repo, which, inflated, changes):
    # ``inflated`` mutates the object before compression, so the edits
    # reach the header and payload checks rather than stop at zlib.
    path, oids = loose_repo
    oid = oids[which]
    file = os.path.join(path, "objects", oid.hex[:2], oid.hex[2:])
    with open(file, "rb") as fh:
        data = fh.read()
    if inflated:
        data = zlib.compress(mutate(zlib.decompress(data), changes))
    else:
        data = mutate(data, changes)
    with replaced(file, data):
        try:
            obj = Repository(path).read_object(oid)
        except VouchError:
            return
    assert hash_object(obj.kind, obj.payload) == oid


@pytest.fixture(scope="module")
def packed_chain30(tmp_path_factory):
    """``fixtures.linear_chain(30)`` packed by ``git gc``, and the paths of
    its pack and index files."""
    chain = fixtures.linear_chain(30)
    path = str(tmp_path_factory.mktemp("packed") / "chain.git")
    subprocess.run(["git", "init", "--bare", "--quiet", "--template=", path],
                   check=True, capture_output=True)
    fixtures.export_to_disk(chain.store, path)
    subprocess.run(["git", "-C", path, "-c", "pack.threads=1", "gc", "--quiet"],
                   check=True, capture_output=True)
    pack_dir = os.path.join(path, "objects", "pack")
    files = sorted(os.path.join(pack_dir, n) for n in os.listdir(pack_dir)
                   if n.endswith((".idx", ".pack")))
    assert len(files) == 2
    return chain, path, files


@pytest.mark.skipif(not HAVE_GIT, reason="git not available")
@given(which=st.integers(0, 1), changes=edits)
@settings(max_examples=150, deadline=None)
@example(which=1, changes=[("cut", 4, 0)])  # a pack shorter than its header
def test_mutated_pack_files_authenticate_or_fail_closed(packed_chain30, which, changes):
    chain, path, files = packed_chain30
    with open(files[which], "rb") as fh:
        data = mutate(fh.read(), changes)
    with replaced(files[which], data):
        try:
            report = authenticate_repository(Repository(path), chain.intro, chain.ids[-1])
        except VouchError:
            return
    assert report.checked == 29
