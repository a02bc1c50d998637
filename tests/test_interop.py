"""Interop with reference tooling: a history made by real git and
GnuPG must authenticate exactly like its synthetic twin, and object
reads must be byte-identical to git's own."""

import os
import shutil
import subprocess

import pytest

from gitvouch.authgraph import (
    ChannelIntroduction,
    IntroductionSignerMismatch,
    authenticate_repository,
)
from gitvouch.gitstore import ObjectId, Repository
from gitvouch.sigverify import Fingerprint

import fixtures

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None or shutil.which("gpg") is None,
    reason="git and gpg required",
)


@pytest.fixture(scope="module")
def interop_repo(tmp_path_factory):
    return fixtures.build_interop_repo(str(tmp_path_factory.mktemp("interop")))


def intro_of(info) -> ChannelIntroduction:
    return ChannelIntroduction(
        ObjectId.from_hex(info["commits"][0]), Fingerprint.parse(info["alice"])
    )


class TestRealToolingAuthentication:
    def test_authenticates_end_to_end(self, interop_repo):
        repo = Repository(interop_repo["repo"].path)
        report = authenticate_repository(
            repo, intro_of(interop_repo), repo.resolve_ref("refs/heads/master")
        )
        assert report.checked == 9

    def test_subkey_signatures_map_to_primary(self, interop_repo):
        repo = Repository(interop_repo["repo"].path)
        report = authenticate_repository(
            repo, intro_of(interop_repo), repo.resolve_ref("refs/heads/master")
        )
        bob_signed = ObjectId.from_hex(interop_repo["commits"][5])
        assert report.signers[bob_signed] == Fingerprint.parse(interop_repo["bob"])

    def test_wrong_introduction_fingerprint(self, interop_repo):
        repo = Repository(interop_repo["repo"].path)
        wrong = ChannelIntroduction(
            ObjectId.from_hex(interop_repo["commits"][0]),
            Fingerprint.parse(interop_repo["bob"]),
        )
        with pytest.raises(IntroductionSignerMismatch):
            authenticate_repository(repo, wrong, repo.resolve_ref("refs/heads/master"))

    def test_verdict_matches_synthetic_twin(self, interop_repo):
        real = Repository(interop_repo["repo"].path)
        real_report = authenticate_repository(
            real, intro_of(interop_repo), real.resolve_ref("refs/heads/master")
        )
        store, commits, alice = fixtures.synthetic_interop_twin()
        twin_report = authenticate_repository(
            store, ChannelIntroduction(commits[0], alice.fingerprint), commits[-1]
        )
        assert real_report.checked == twin_report.checked == 9


class TestByteIdenticalReads:
    def _assert_all_match(self, repo_path):
        repo = Repository(repo_path)
        run = lambda *a: subprocess.run(
            ["git", "-C", repo_path, *a], check=True, capture_output=True
        ).stdout
        listing = run(
            "cat-file", "--batch-all-objects", "--batch-check=%(objectname) %(objecttype)"
        )
        count = 0
        for line in listing.decode().splitlines():
            sha, kind = line.split()
            obj = repo.read_object(ObjectId.from_hex(sha))
            assert obj.kind == kind
            assert obj.payload == run("cat-file", kind, sha)
            count += 1
        assert count >= 30  # trees + blobs + commits across both branches

    def test_loose(self, interop_repo):
        self._assert_all_match(interop_repo["repo"].path)

    def test_packed(self, interop_repo):
        interop_repo["repo"].run("repack", "-adq")
        self._assert_all_match(interop_repo["repo"].path)
        repo = Repository(interop_repo["repo"].path)
        report = authenticate_repository(
            repo, intro_of(interop_repo), repo.resolve_ref("refs/heads/master")
        )
        assert report.checked == 9


class TestSyntheticExportReadByGit:
    def test_git_fsck_accepts_exported_store(self, tmp_path):
        fig = fixtures.fig4()
        path = fixtures.export_to_disk(fig.store, str(tmp_path / "synth.git"))
        env = dict(os.environ, GIT_CONFIG_GLOBAL="/dev/null", GIT_CONFIG_SYSTEM="/dev/null")
        result = subprocess.run(
            ["git", "--git-dir", path, "fsck", "--strict"],
            capture_output=True, env=env,
        )
        assert result.returncode == 0, result.stderr

    def test_git_verifies_our_commit_signature(self, tmp_path):
        from openpgp_writer import export_public

        fig = fixtures.fig4()
        path = fixtures.export_to_disk(fig.store, str(tmp_path / "synth.git"))
        gpg = fixtures.GpgHome(str(tmp_path / "gnupg"))
        key_file = tmp_path / "alice.asc"
        key_file.write_text(export_public(fig.alice))
        gpg.run("--import", str(key_file))
        env = dict(
            os.environ, GNUPGHOME=gpg.path,
            GIT_CONFIG_GLOBAL="/dev/null", GIT_CONFIG_SYSTEM="/dev/null",
        )
        result = subprocess.run(
            ["git", "--git-dir", path, "verify-commit", fig.b.hex],
            capture_output=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert b"Good signature" in result.stderr

    def test_cli_behavior_identical_on_exported_store(self, tmp_path, state_dir):
        from gitvouch import cli

        fig = fixtures.fig4()
        path = fixtures.export_to_disk(fig.store, str(tmp_path / "synth.git"))
        code = cli.main([
            "authenticate", fig.intro.commit.hex, fig.alice.fingerprint.display(),
            "--repository", path, "--end", fig.f.hex, "--state-dir", state_dir,
        ])
        assert code == 0
