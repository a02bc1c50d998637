"""Acceptance criteria.

Each test prints one PASS/FAIL line (visible without -s). Timing
bounds: criteria 1 and 2 under 5 s, criterion 3 under 60 s with 500/500
oracle agreement, criterion 7 at >= 100 commits/s cold-cache on a
2,000-commit chain under 30 s total.
"""

import random
import shutil
import time
from contextlib import contextmanager

import pytest

from gitvouch import cli
from gitvouch.authgraph import (
    AuthCache,
    AuthOptions,
    ChannelIntroduction,
    NotDescendantOfIntroduction,
    Unauthorized,
    Unsigned,
    authenticate_repository,
    load_keyring,
)
from gitvouch.channel import FastForwardVerdict, fast_forward_check
from gitvouch.errors import VouchError
from gitvouch.gitstore import ObjectId, Repository
from gitvouch.sigverify import (
    Fingerprint,
    Keyring,
    SignaturePacket,
    WeakDigest,
    dearmor,
    load_keys,
    parse_packets,
    verify_detailed,
)
from gitvouch.sigverify.armor import SIGNATURE

import fixtures
from openpgp_writer import export_public, sign_for_tests
from test_cli import make_update_repo, set_branch, write_channels

HAVE_TOOLS = shutil.which("git") is not None and shutil.which("gpg") is not None


@contextmanager
def criterion(capsys, number: int, description: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number:2d}: PASS - {description}")


def test_criterion_01_fig4_scenario_suite(capsys):
    with criterion(capsys, 1, "two-branch merge scenario and its mutations"):
        started = time.monotonic()

        fig = fixtures.fig4()
        report = authenticate_repository(fig.store, fig.intro, fig.f)
        assert report.checked == 5
        assert report.signers[fig.f] == fig.alice.fingerprint

        with pytest.raises(Unsigned):
            bad = fixtures.fig4(mutation="unsigned_c")
            authenticate_repository(bad.store, bad.intro, bad.f)

        with pytest.raises(Unauthorized):
            bad = fixtures.fig4(mutation="c_unlisted_key")
            authenticate_repository(bad.store, bad.intro, bad.f)

        with pytest.raises(Unauthorized) as exc:
            bad = fixtures.fig4(mutation="f_not_in_e")
            authenticate_repository(bad.store, bad.intro, bad.f)
        assert exc.value.parent == bad.e

        assert time.monotonic() - started < 5.0


def test_criterion_02_fig5_introduction_suite(capsys):
    with criterion(capsys, 2, "introduction cone: descendants pass, others fail"):
        started = time.monotonic()
        fig = fixtures.fig5()
        for target in (fig.c, fig.d, fig.e, fig.f):
            assert authenticate_repository(fig.store, fig.intro, target).target == target
        for target in (fig.g, fig.h):
            with pytest.raises(NotDescendantOfIntroduction):
                authenticate_repository(fig.store, fig.intro, target)
        assert time.monotonic() - started < 5.0


def test_criterion_03_brute_force_oracle_500(capsys):
    with criterion(capsys, 3, "engine matches brute-force oracle on 500 random repositories"):
        started = time.monotonic()
        rng = random.Random(0xACCE97)
        agreements = 0
        for _ in range(500):
            repo = fixtures.random_repository(rng, max_commits=40)
            options = AuthOptions(historical_authorizations=repo.historical)
            try:
                authenticate_repository(repo.store, repo.intro, repo.target, options)
                engine_ok = True
            except VouchError:
                engine_ok = False
            ring = load_keyring(repo.store, "refs/heads/keyring")
            brute_ok = fixtures.brute_force_authentic(
                repo.store, repo.intro, repo.target, ring, repo.historical
            )
            assert engine_ok == brute_ok, f"oracle disagreement (expected {repo.expect_ok})"
            assert engine_ok == repo.expect_ok
            agreements += 1
        elapsed = time.monotonic() - started
        assert agreements == 500
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_04_downgrade_matrix(capsys, tmp_path, state_dir):
    with criterion(capsys, 4, "fast-forward verdicts and update refusal"):
        fig = fixtures.fig4()
        assert fast_forward_check(fig.store, fig.a, fig.f) is FastForwardVerdict.FAST_FORWARD
        assert fast_forward_check(fig.store, fig.f, fig.a) is FastForwardVerdict.DOWNGRADE
        assert fast_forward_check(fig.store, fig.d, fig.e) is FastForwardVerdict.UNRELATED

        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "chan", repo["primary_url"], repo["intro"]
        )
        args = ["update", "--repository", repo["path"], "--channels", channels,
                "--state-dir", state_dir]
        assert cli.main(args) == 0  # baseline at master tip (c)

        set_branch(repo["path"], "master", repo["b"])  # ancestor: downgrade
        assert cli.main(args) == 2
        assert cli.main(args + ["--allow-downgrades"]) == 0

        set_branch(repo["path"], "master", repo["c"])  # restore baseline at c
        assert cli.main(args) == 0
        set_branch(repo["path"], "master", repo["d"])  # sibling of c: unrelated
        assert cli.main(args) == 2
        assert cli.main(args + ["--allow-downgrades"]) == 0


def test_criterion_05_sha1_policy(capsys):
    with criterion(capsys, 5, "SHA-1 signatures refused before verification; SHA-256 passes"):
        alice = fixtures.key("alice")
        stranger = fixtures.key("zed")  # not in the keyring below
        ring = Keyring(load_keys(export_public(alice)))

        def sig_of(armored):
            packets = parse_packets(dearmor(armored, SIGNATURE))
            return next(p for p in packets if isinstance(p, SignaturePacket))

        weak = sig_of(sign_for_tests(b"payload\n", alice, hash_algorithm="sha1"))
        with pytest.raises(WeakDigest):
            verify_detailed(weak, b"payload\n", ring)

        # rejection happens before issuer resolution: an unknown signer
        # still reports WeakDigest, not UnknownKey
        weak_unknown = sig_of(sign_for_tests(b"payload\n", stranger, hash_algorithm="sha1"))
        with pytest.raises(WeakDigest):
            verify_detailed(weak_unknown, b"payload\n", ring)

        strong = sig_of(sign_for_tests(b"payload\n", alice, hash_algorithm="sha256"))
        assert verify_detailed(strong, b"payload\n", ring).primary_fingerprint == alice.fingerprint


def test_criterion_06_cache_semantics(capsys, tmp_path):
    with criterion(capsys, 6, "warm cache skips work; corrupted cache degrades safely"):
        fig = fixtures.fig4()
        options = AuthOptions(cache=AuthCache(str(tmp_path / "state")))

        cold = authenticate_repository(fig.store, fig.intro, fig.f, options)
        assert cold.checked == 5

        warm = authenticate_repository(fig.store, fig.intro, fig.f, options)
        assert warm.checked == 0
        assert warm.cache_skipped > 0
        assert warm.target == cold.target

        cache_path = options.cache._path(AuthCache.key_for(fig.intro))
        with open(cache_path, "wb") as fh:
            fh.write(b"\x00\xffgarbage that is not hex\n")
        degraded = authenticate_repository(fig.store, fig.intro, fig.f, options)
        assert degraded.checked == 5  # full re-check, same verdict
        assert degraded.target == cold.target


def test_criterion_07_throughput(capsys, tmp_path):
    with criterion(capsys, 7, "cold-cache authentication rate on a 2,000-commit chain"):
        started = time.monotonic()
        chain = fixtures.linear_chain(2000)
        build_done = time.monotonic()

        options = AuthOptions(cache=AuthCache(str(tmp_path / "state")))
        auth_start = time.monotonic()
        report = authenticate_repository(chain.store, chain.intro, chain.ids[-1], options)
        auth_elapsed = time.monotonic() - auth_start

        assert report.checked == 1999
        rate = report.checked / auth_elapsed
        total = time.monotonic() - started
        assert rate >= 100.0, f"only {rate:.0f} commits/s"
        assert total < 30.0, f"total run {total:.1f}s"
        with capsys.disabled():
            print(
                f"    throughput: {rate:.0f} commits/s "
                f"(auth {auth_elapsed:.2f}s, build {build_done - started:.2f}s)"
            )


@pytest.mark.skipif(not HAVE_TOOLS, reason="git and gpg required")
def test_criterion_08_reference_tooling_interop(capsys, tmp_path):
    with criterion(capsys, 8, "git+gpg-built repository matches the synthetic twin"):
        info = fixtures.build_interop_repo(str(tmp_path))
        repo = Repository(info["repo"].path)
        intro = ChannelIntroduction(
            ObjectId.from_hex(info["commits"][0]), Fingerprint.parse(info["alice"])
        )
        real = authenticate_repository(repo, intro, repo.resolve_ref("refs/heads/master"))

        store, commits, alice = fixtures.synthetic_interop_twin()
        twin = authenticate_repository(
            store, ChannelIntroduction(commits[0], alice.fingerprint), commits[-1]
        )
        assert real.checked == twin.checked == 9

        # byte-identical object reads against git cat-file
        import subprocess

        run = lambda *a: subprocess.run(
            ["git", "-C", info["repo"].path, *a], check=True, capture_output=True
        ).stdout
        listing = run(
            "cat-file", "--batch-all-objects", "--batch-check=%(objectname) %(objecttype)"
        )
        for line in listing.decode().splitlines():
            sha, kind = line.split()
            obj = repo.read_object(ObjectId.from_hex(sha))
            assert (obj.kind, obj.payload) == (kind, run("cat-file", kind, sha))


def test_criterion_09_staleness_transcript(capsys, tmp_path, state_dir):
    with criterion(capsys, 9, "mirror pull warns with both URLs, exit 0"):
        repo = make_update_repo(tmp_path)  # primary.example.org in .guix-channel
        mirror_url = "https://mirror.example.net/clone.git"
        channels = write_channels(
            tmp_path / "channels.scm", "chan", mirror_url, repo["intro"]
        )
        code = cli.main([
            "update", "--repository", repo["path"], "--channels", channels,
            "--state-dir", state_dir,
        ])
        err = capsys.readouterr().err
        assert code == 0
        assert "might be stale" in err
        assert mirror_url in err
        assert repo["primary_url"] in err


def test_criterion_10_historical_mode(capsys, tmp_path, state_dir):
    with criterion(capsys, 10, "pre-policy history needs a static authorization file"):
        repo = fixtures.historical_repo(pre=5, post=5)
        path = fixtures.export_to_disk(repo.store, str(tmp_path / "hist.git"))
        hist = tmp_path / "static-authorizations"
        hist.write_bytes(repo.historical)
        base = [
            "authenticate", repo.intro.commit.hex, repo.intro.signer.display(),
            "--repository", path, "--end", repo.ids[-1].hex,
            "--state-dir", state_dir,
        ]
        assert cli.main(base + ["--historical-authorizations", str(hist)]) == 0

        code = cli.main(base + ["--cache-key", "no-historical"])
        err = capsys.readouterr().err
        assert code == 1
        assert "MissingAuthorizations" in err
