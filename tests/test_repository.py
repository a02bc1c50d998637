"""On-disk repository reading, checked byte-for-byte against real git."""

import os
import shutil
import subprocess
import tracemalloc
import zlib

import pytest

import fixtures
from gitvouch.authgraph import authenticate_repository
from gitvouch.gitstore import (
    CorruptObject,
    ObjectId,
    ObjectNotFound,
    Repository,
    SymrefLoop,
    hash_object,
)
from gitvouch.gitstore.pack import PackFile

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="git not available")


def run_git(cwd, *args, **kwargs):
    return subprocess.run(
        ["git", "-C", cwd, *args], check=True, capture_output=True, **kwargs
    )


@pytest.fixture
def git_repo(tmp_path):
    """A real repository with enough history to exercise deltas."""
    path = str(tmp_path / "repo")
    os.makedirs(path)
    run_git(path, "init", "-q", "-b", "master")
    run_git(path, "config", "user.name", "Fixture")
    run_git(path, "config", "user.email", "fixture@example.org")
    base = "\n".join(f"line {i}: some repetitive content for delta compression" for i in range(200))
    for i in range(5):
        with open(os.path.join(path, "big.txt"), "w") as fh:
            fh.write(base + f"\nrevision {i}\n")
        with open(os.path.join(path, f"file{i}.txt"), "w") as fh:
            fh.write(f"content {i}\n")
        run_git(path, "add", ".")
        run_git(path, "commit", "-q", "-m", f"commit {i}")
    run_git(path, "tag", "-a", "v1", "-m", "release one")
    run_git(path, "branch", "side")
    return path


def all_objects(path):
    out = run_git(path, "cat-file", "--batch-all-objects",
                  "--batch-check=%(objectname) %(objecttype)").stdout
    return [line.split() for line in out.decode().splitlines()]


def git_payload(path, kind, sha):
    return run_git(path, "cat-file", kind, sha).stdout


def assert_reads_match_git(path):
    repo = Repository(path)
    objects = all_objects(path)
    assert len(objects) > 10
    for sha, kind in objects:
        obj = repo.read_object(ObjectId.from_hex(sha))
        assert obj.kind == kind
        assert obj.payload == git_payload(path, kind, sha), f"mismatch at {kind} {sha}"


class TestLooseObjects:
    def test_all_reads_byte_identical_to_git(self, git_repo):
        assert_reads_match_git(git_repo)

    def test_blob_example(self, git_repo):
        repo = Repository(git_repo)
        sha = run_git(git_repo, "rev-parse", "HEAD:file0.txt").stdout.decode().strip()
        obj = repo.read_object(ObjectId.from_hex(sha))
        assert obj.kind == "blob"
        assert obj.payload == b"content 0\n"

    def test_missing_object(self, git_repo):
        with pytest.raises(ObjectNotFound):
            Repository(git_repo).read_object(ObjectId(b"\x01" * 20))

    def test_corrupt_payload_detected(self, git_repo):
        sha = run_git(git_repo, "rev-parse", "HEAD:file1.txt").stdout.decode().strip()
        loose = os.path.join(git_repo, ".git", "objects", sha[:2], sha[2:])
        with open(loose, "rb") as fh:
            raw = zlib.decompress(fh.read())
        mutated = bytearray(raw)
        mutated[-2] ^= 0xFF  # flip a payload byte, keep header legal
        os.chmod(loose, 0o644)
        with open(loose, "wb") as fh:
            fh.write(zlib.compress(bytes(mutated)))
        with pytest.raises(CorruptObject):
            Repository(git_repo).read_object(ObjectId.from_hex(sha))

    def test_undecodable_stream_detected(self, git_repo):
        sha = run_git(git_repo, "rev-parse", "HEAD:file2.txt").stdout.decode().strip()
        loose = os.path.join(git_repo, ".git", "objects", sha[:2], sha[2:])
        os.chmod(loose, 0o644)
        with open(loose, "wb") as fh:
            fh.write(b"\x78\x9cnot zlib at all")
        with pytest.raises(CorruptObject):
            Repository(git_repo).read_object(ObjectId.from_hex(sha))


    def test_zlib_bomb_rejected_without_inflating(self, git_repo):
        # 51 KB on disk, 50 MB inflated, but the header declares 5 bytes.
        inflated = 50 << 20
        comp = zlib.compressobj()
        data = comp.compress(b"blob 5\x00")
        for _ in range(inflated >> 20):
            data += comp.compress(bytes(1 << 20))
        data += comp.flush()
        sha = "ab" * 20
        os.makedirs(os.path.join(git_repo, ".git", "objects", sha[:2]), exist_ok=True)
        with open(os.path.join(git_repo, ".git", "objects", sha[:2], sha[2:]), "wb") as fh:
            fh.write(data)
        repo = Repository(git_repo)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptObject, match="length mismatch"):
                repo.read_object(ObjectId.from_hex(sha))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(data) + (1 << 20) < inflated // 10


class TestPackedObjects:
    def test_ofs_delta_pack_reads_match_git(self, git_repo):
        run_git(git_repo, "repack", "-adq")
        pack_dir = os.path.join(git_repo, ".git", "objects", "pack")
        assert any(n.endswith(".pack") for n in os.listdir(pack_dir))
        assert_reads_match_git(git_repo)

    def test_ref_delta_pack_reads_match_git(self, git_repo):
        run_git(git_repo, "-c", "repack.usedeltabaseoffset=false", "repack", "-adq")
        assert_reads_match_git(git_repo)

    def test_pack_actually_contains_deltas(self, git_repo):
        run_git(git_repo, "repack", "-adq")
        pack_dir = os.path.join(git_repo, ".git", "objects", "pack")
        idx = next(n for n in sorted(os.listdir(pack_dir)) if n.endswith(".idx"))
        out = run_git(git_repo, "verify-pack", "-v", os.path.join(pack_dir, idx)).stdout
        depths = [
            int(parts[4])
            for parts in (line.split() for line in out.decode().splitlines())
            if len(parts) >= 5 and parts[1] in ("blob", "tree", "commit", "tag") and parts[4].isdigit()
        ]
        # the repetitive big.txt revisions must have deltified
        assert "delta" in out.decode() or any(d > 0 for d in depths)

    def test_mixed_loose_and_packed(self, git_repo):
        run_git(git_repo, "repack", "-dq")  # keep some loose, pack the rest
        with open(os.path.join(git_repo, "new.txt"), "w") as fh:
            fh.write("fresh\n")
        run_git(git_repo, "add", "new.txt")
        run_git(git_repo, "commit", "-qm", "post-pack commit")
        assert_reads_match_git(git_repo)


class TestRefs:
    def test_head_symref(self, git_repo):
        repo = Repository(git_repo)
        head = run_git(git_repo, "rev-parse", "HEAD").stdout.decode().strip()
        assert repo.resolve_ref("HEAD").hex == head
        assert repo.resolve_ref("refs/heads/master").hex == head

    def test_packed_refs(self, git_repo):
        run_git(git_repo, "pack-refs", "--all")
        repo = Repository(git_repo)
        head = run_git(git_repo, "rev-parse", "refs/heads/side").stdout.decode().strip()
        assert repo.resolve_ref("refs/heads/side").hex == head

    def test_annotated_tag_peels_to_commit(self, git_repo):
        repo = Repository(git_repo)
        peeled = run_git(git_repo, "rev-parse", "v1^{commit}").stdout.decode().strip()
        assert repo.resolve_ref("refs/tags/v1").hex == peeled

    def test_missing_ref(self, git_repo):
        with pytest.raises(ObjectNotFound):
            Repository(git_repo).resolve_ref("refs/heads/nope")

    def test_symref_loop(self, git_repo):
        gitdir = os.path.join(git_repo, ".git")
        for i in range(18):
            with open(os.path.join(gitdir, f"LOOP{i}"), "w") as fh:
                fh.write(f"ref: LOOP{(i + 1) % 18}\n")
        with pytest.raises(SymrefLoop):
            Repository(git_repo).resolve_ref("LOOP0")

    def test_worktree_or_gitdir_path(self, git_repo):
        assert Repository(git_repo).git_dir == Repository(os.path.join(git_repo, ".git")).git_dir

    def test_not_a_repository(self, tmp_path):
        with pytest.raises(ObjectNotFound):
            Repository(str(tmp_path))


class TestRoundTripInvariant:
    def test_hash_of_read_equals_id_for_every_object(self, git_repo):
        run_git(git_repo, "repack", "-adq")
        repo = Repository(git_repo)
        for sha, kind in all_objects(git_repo):
            obj = repo.read_object(ObjectId.from_hex(sha))
            assert hash_object(obj.kind, obj.payload).hex == sha


@pytest.fixture(scope="module")
def packed_chain(tmp_path_factory):
    """``fixtures.linear_chain(200)`` exported and packed by ``git gc``,
    which stores most of its commits as deltas against a few bases."""
    chain = fixtures.linear_chain(200)
    path = str(tmp_path_factory.mktemp("chain") / "chain.git")
    run_git(".", "init", "--bare", "--quiet", "--template=", path)
    fixtures.export_to_disk(chain.store, path)
    run_git(path, "-c", "pack.threads=1", "gc", "--quiet")
    assert not any(len(d) == 2 for d in os.listdir(os.path.join(path, "objects")))
    return chain, path


class TestDeltaBaseCache:
    def test_shared_and_fresh_repositories_read_the_same_bytes(self, packed_chain):
        _, path = packed_chain
        objects = all_objects(path)
        assert len(objects) > 200
        shared = Repository(path)
        for sha, kind in objects:
            oid = ObjectId.from_hex(sha)
            via_shared = shared.read_object(oid)
            via_fresh = Repository(path).read_object(oid)
            assert via_shared == via_fresh
            assert via_shared.kind == kind

    def test_cold_run_inflates_about_one_object_per_commit_read(self, packed_chain, monkeypatch):
        chain, path = packed_chain
        inflated, commits_read = [], []
        real_inflate, real_read = PackFile._inflate, Repository.read_object

        def counting_inflate(self, pos, expected):
            inflated.append(pos)
            return real_inflate(self, pos, expected)

        def counting_read(self, oid):
            obj = real_read(self, oid)
            if obj.kind == "commit":
                commits_read.append(oid)
            return obj

        monkeypatch.setattr(PackFile, "_inflate", counting_inflate)
        monkeypatch.setattr(Repository, "read_object", counting_read)
        report = authenticate_repository(Repository(path), chain.intro, chain.ids[-1])
        assert report.checked == 199
        assert len(commits_read) > 200
        assert len(inflated) <= 1.05 * len(commits_read)
