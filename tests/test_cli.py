"""CLI behavior: exit-code mapping, streams, update pipeline."""

import os
import threading

import pytest

from gitvouch import authgraph, channel, cli
from gitvouch.authgraph import AuthCache
from gitvouch.gitstore import MemoryStore, ObjectId, graph
from gitvouch.sigverify import ed25519

import fixtures


def write_channels(path, name, url, intro):
    text = (
        f"(channel (name '{name}) (url \"{url}\")\n"
        f"  (introduction (make-channel-introduction\n"
        f"    \"{intro.commit.hex}\"\n"
        f"    (openpgp-fingerprint \"{intro.signer.display()}\"))))\n"
    )
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture
def fig4_disk(tmp_path):
    fig = fixtures.fig4()
    fig.path = fixtures.export_to_disk(fig.store, str(tmp_path / "repo.git"))
    return fig


def make_update_repo(tmp_path, primary_url="https://primary.example.org/repo.git"):
    """History whose trees carry channel metadata, exported to disk."""
    alice, bob = fixtures.key("alice"), fixtures.key("bob")
    store = MemoryStore()
    fixtures.add_keyring_branch(store, [alice, bob], ref="refs/heads/keys")
    files = {
        ".guix-authorizations": fixtures.authz_bytes(alice, bob),
        ".guix-channel": (
            f'(channel (version 0) (url "{primary_url}") '
            f'(keyring-reference "keys"))'
        ).encode(),
    }
    a = store.commit_files(files, message="A\n", sign_with=fixtures.signer(alice))
    b = store.commit_files(files, [a], message="B\n", sign_with=fixtures.signer(bob))
    c = store.commit_files(files, [b], message="C\n", sign_with=fixtures.signer(alice))
    d = store.commit_files(files, [b], message="D side\n", sign_with=fixtures.signer(alice))
    store.set_ref("refs/heads/master", c)
    store.set_ref("refs/heads/side", d)
    path = fixtures.export_to_disk(store, str(tmp_path / "update-repo.git"))
    from gitvouch.authgraph import ChannelIntroduction

    return {
        "store": store, "path": path, "a": a, "b": b, "c": c, "d": d,
        "alice": alice, "bob": bob,
        "intro": ChannelIntroduction(a, alice.fingerprint),
        "primary_url": primary_url,
    }


def set_branch(path, name, oid: ObjectId):
    with open(os.path.join(path, "refs", "heads", name), "w") as fh:
        fh.write(oid.hex + "\n")


class TestAuthenticateCommand:
    def test_success_exit_zero(self, fig4_disk, state_dir, capsys):
        code = cli.main([
            "authenticate", fig4_disk.intro.commit.hex,
            fig4_disk.alice.fingerprint.display(),
            "--repository", fig4_disk.path, "--end", fig4_disk.f.hex,
            "--state-dir", state_dir,
        ])
        assert code == 0
        assert "successfully authenticated" in capsys.readouterr().err

    def test_stats_lines_prefixed(self, fig4_disk, state_dir, capsys):
        code = cli.main([
            "authenticate", fig4_disk.intro.commit.hex,
            fig4_disk.alice.fingerprint.display(),
            "--repository", fig4_disk.path, "--end", fig4_disk.f.hex,
            "--state-dir", state_dir, "--stats",
        ])
        err = capsys.readouterr().err
        assert code == 0
        assert "stats: commits checked: 5" in err
        assert "stats: commits walked: 5" in err
        assert "stats: cache hits: 0" in err
        # One policy file at the root, one shared by every later commit.
        assert "stats: policy files parsed: 2" in err
        # Five checks are too few to start a helper thread for.
        assert "stats: signatures verified by helper: 0" in err
        assert f"stats: ed25519 engine: {ed25519.engine().name}" in err

    def test_malformed_tag_is_a_parse_error_not_a_traceback(self, tmp_path, state_dir, capsys):
        fig = fixtures.fig4()
        tag = fig.store.add_object(
            "tag", b"object " + b"z" * 40 + b"\ntype commit\ntag bad\n\nbad\n")
        fig.store.set_ref("refs/tags/bad", tag)
        path = fixtures.export_to_disk(fig.store, str(tmp_path / "repo.git"))
        code = cli.main([
            "authenticate", fig.intro.commit.hex, fig.alice.fingerprint.display(),
            "--repository", path, "--end", "bad", "--state-dir", state_dir,
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert "CorruptObject" in err and "Traceback" not in err

    def test_symbolic_ref_to_non_utf8_name_is_a_parse_error(self, fig4_disk, state_dir, capsys):
        with open(os.path.join(fig4_disk.path, "refs", "heads", "bad"), "wb") as fh:
            fh.write(b"ref: refs/heads/\xff\n")
        code = cli.main([
            "authenticate", fig4_disk.intro.commit.hex, fig4_disk.alice.fingerprint.display(),
            "--repository", fig4_disk.path, "--end", "bad", "--state-dir", state_dir,
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert "CorruptObject" in err and "Traceback" not in err

    def test_warm_cache_second_run(self, fig4_disk, state_dir, capsys):
        args = [
            "authenticate", fig4_disk.intro.commit.hex,
            fig4_disk.alice.fingerprint.display(),
            "--repository", fig4_disk.path, "--end", fig4_disk.f.hex,
            "--state-dir", state_dir, "--stats",
        ]
        assert cli.main(args) == 0
        capsys.readouterr()
        assert cli.main(args) == 0
        err = capsys.readouterr().err
        assert "stats: commits checked: 0" in err
        assert "stats: commits walked: 0" in err
        assert "stats: cache hits: 1" in err
        assert "stats: policy files parsed: 0" in err

    def test_wrong_fingerprint_digit_exit_one(self, fig4_disk, state_dir, capsys):
        fpr = fig4_disk.alice.fingerprint.hex
        wrong = ("0" if fpr[0] != "0" else "1") + fpr[1:]
        code = cli.main([
            "authenticate", fig4_disk.intro.commit.hex, wrong,
            "--repository", fig4_disk.path, "--end", fig4_disk.f.hex,
            "--state-dir", state_dir,
        ])
        assert code == 1
        assert "IntroductionSignerMismatch" in capsys.readouterr().err

    def test_unsigned_commit_exit_one_names_commit(self, tmp_path, state_dir, capsys):
        fig = fixtures.fig4(mutation="unsigned_c")
        path = fixtures.export_to_disk(fig.store, str(tmp_path / "bad.git"))
        code = cli.main([
            "authenticate", fig.intro.commit.hex, fig.alice.fingerprint.display(),
            "--repository", path, "--end", fig.f.hex, "--state-dir", state_dir,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "Unsigned" in err
        assert fig.c.hex in err

    def test_unauthorized_commit_exit_one_names_policy(self, tmp_path, state_dir, capsys):
        fig = fixtures.fig4(mutation="c_unlisted_key")
        path = fixtures.export_to_disk(fig.store, str(tmp_path / "bad.git"))
        code = cli.main([
            "authenticate", fig.intro.commit.hex, fig.alice.fingerprint.display(),
            "--repository", path, "--end", fig.f.hex, "--state-dir", state_dir,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"gitvouch: error: Unauthorized at commit {fig.c.hex}")
        policy = graph.path_entry(fig.store, fig.store.commit(fig.b).tree,
                                  ".guix-authorizations")
        assert f"parent {fig.b.hex} (2 key(s) listed by policy blob {policy.hex})" in err

    def test_non_ascii_tree_mode_exit_one_without_traceback(self, tmp_path, state_dir, capsys):
        chain = fixtures.bad_tree_mode_chain()
        path = fixtures.export_to_disk(chain.store, str(tmp_path / "bad.git"))
        code = cli.main([
            "authenticate", chain.intro.commit.hex, chain.alice.fingerprint.display(),
            "--repository", path, "--end", chain.target.hex, "--state-dir", state_dir,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"gitvouch: error: CorruptObject at commit {chain.target.hex}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("claimed", [1, 22], ids=["rsa-claim-ed25519-key", "eddsa-claim-rsa-key"])
    def test_signature_naming_key_of_other_algorithm_exit_one(
        self, tmp_path, state_dir, capsys, claimed
    ):
        alice, rita = fixtures.key("alice"), fixtures.RsaTestKey()
        store = MemoryStore()
        keys = store.commit_files(
            {"alice.key": fixtures.export_public(alice).encode(), "rita.key": rita.export_binary()},
            message="keys\n",
        )
        store.set_ref("refs/heads/keyring", keys)
        policy = {".guix-authorizations": fixtures.authz_bytes(alice)}
        intro = store.commit_files(policy, message="intro\n", sign_with=fixtures.signer(alice))

        def forge(payload):
            genuine = fixtures.sign_for_tests(payload, alice) if claimed == 1 else rita.sign(payload)
            return fixtures.claim_algorithm(genuine, claimed, payload)

        forged = store.commit_files(policy, [intro], message="forged\n", sign_with=forge)
        path = fixtures.export_to_disk(store, str(tmp_path / "forged.git"))
        code = cli.main([
            "authenticate", intro.hex, alice.fingerprint.display(),
            "--repository", path, "--end", forged.hex, "--state-dir", state_dir,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"gitvouch: error: BadSignature at commit {forged.hex}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "commit,fpr",
        [
            ("zzz", "53B228BF2E908F8B870FE686F4B0C39018A97E96"),
            ("0" * 40, "not-a-fingerprint"),
        ],
    )
    def test_malformed_arguments_exit_three(self, commit, fpr, capsys):
        assert cli.main(["authenticate", commit, fpr]) == 3
        assert "error" in capsys.readouterr().err

    def test_missing_repository_exit_three(self, tmp_path, capsys):
        code = cli.main([
            "authenticate", "0" * 40, "53B228BF2E908F8B870FE686F4B0C39018A97E96",
            "--repository", str(tmp_path / "void"),
        ])
        assert code == 3

    def test_historical_mode(self, tmp_path, state_dir, capsys):
        repo = fixtures.historical_repo()
        path = fixtures.export_to_disk(repo.store, str(tmp_path / "hist.git"))
        hist_file = tmp_path / "authorizations"
        hist_file.write_bytes(repo.historical)
        base = [
            "authenticate", repo.intro.commit.hex, repo.intro.signer.display(),
            "--repository", path, "--end", repo.ids[-1].hex, "--state-dir", state_dir,
        ]
        assert cli.main(base + ["--historical-authorizations", str(hist_file)]) == 0
        capsys.readouterr()
        assert cli.main(base + ["--cache-key", "fresh"]) == 1
        assert "MissingAuthorizations" in capsys.readouterr().err

    def test_bare_invocation_shape(self, fig4_disk, state_dir, monkeypatch):
        # two positionals, everything else defaulted, run from inside
        # the checkout: the documented minimal invocation
        monkeypatch.chdir(fig4_disk.path)
        monkeypatch.setenv("GITVOUCH_STATE_DIR", state_dir)
        code = cli.main([
            "authenticate", fig4_disk.intro.commit.hex,
            fig4_disk.alice.fingerprint.display(),
        ])
        assert code == 0

    def test_end_defaults_to_head(self, fig4_disk, state_dir):
        code = cli.main([
            "authenticate", fig4_disk.intro.commit.hex,
            fig4_disk.alice.fingerprint.display(),
            "--repository", fig4_disk.path, "--state-dir", state_dir,
        ])
        assert code == 0  # HEAD -> refs/heads/master -> F

    def test_end_accepts_branch_shorthand(self, fig4_disk, state_dir):
        code = cli.main([
            "authenticate", fig4_disk.intro.commit.hex,
            fig4_disk.alice.fingerprint.display(),
            "--repository", fig4_disk.path, "--end", "master",
            "--state-dir", state_dir,
        ])
        assert code == 0


class TestUpdateCommand:
    def test_first_update_records_provenance(self, tmp_path, state_dir, capsys):
        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        code = cli.main([
            "update", "--repository", repo["path"], "--channels", channels,
            "--state-dir", state_dir,
        ])
        assert code == 0
        record = channel.provenance_read(os.path.join(state_dir, "provenance"), "testchan")
        assert record is not None
        assert record.commit == repo["c"]
        assert record.branch == "master"
        # pulling from the primary URL: no staleness warning
        assert "might be stale" not in capsys.readouterr().err

    def test_fast_forward_advances(self, tmp_path, state_dir):
        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        args = ["update", "--repository", repo["path"], "--channels", channels,
                "--state-dir", state_dir]
        set_branch(repo["path"], "master", repo["b"])
        assert cli.main(args) == 0
        set_branch(repo["path"], "master", repo["c"])
        assert cli.main(args) == 0
        record = channel.provenance_read(os.path.join(state_dir, "provenance"), "testchan")
        assert record.commit == repo["c"]

    def test_stats_show_only_new_commits_walked(self, tmp_path, state_dir, capsys):
        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        args = ["update", "--repository", repo["path"], "--channels", channels,
                "--state-dir", state_dir, "--stats"]
        set_branch(repo["path"], "master", repo["b"])
        assert cli.main(args) == 0
        err = capsys.readouterr().err
        assert "stats: commits walked: 1" in err
        assert "stats: policy files parsed: 1" in err
        set_branch(repo["path"], "master", repo["c"])
        assert cli.main(args) == 0
        err = capsys.readouterr().err
        assert "stats: commits walked: 1" in err
        assert "stats: cache hits: 1" in err
        assert "stats: policy files parsed: 1" in err

    @pytest.mark.parametrize("helper", [False, True])
    def test_stats_count_signatures_verified_by_helper(
        self, tmp_path, state_dir, capsys, monkeypatch, helper
    ):
        if helper:
            monkeypatch.setattr(authgraph, "WORKER_MIN_CHECKS", 2)
        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        assert cli.main(["update", "--repository", repo["path"], "--channels", channels,
                         "--state-dir", state_dir, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "stats: commits checked: 2" in err
        (line,) = [x for x in err.splitlines() if "verified by helper" in x]
        count = int(line.removeprefix("stats: signatures verified by helper: "))
        assert 0 <= count <= 2 if helper else count == 0

    def test_downgrade_refused_exit_two(self, tmp_path, state_dir, capsys):
        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        args = ["update", "--repository", repo["path"], "--channels", channels,
                "--state-dir", state_dir]
        assert cli.main(args) == 0  # baseline at c
        capsys.readouterr()
        set_branch(repo["path"], "master", repo["b"])
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "downgrade" in err
        # provenance unchanged
        record = channel.provenance_read(os.path.join(state_dir, "provenance"), "testchan")
        assert record.commit == repo["c"]

    def test_unrelated_refused_exit_two_distinct_message(self, tmp_path, state_dir, capsys):
        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        args = ["update", "--repository", repo["path"], "--channels", channels,
                "--state-dir", state_dir]
        assert cli.main(args) == 0  # baseline at c (master)
        capsys.readouterr()
        set_branch(repo["path"], "master", repo["d"])  # sibling branch tip
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "unrelated" in err
        assert "downgrade:" not in err

    def test_hostile_cache_cannot_accept_downgrade(self, tmp_path, state_dir, capsys):
        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        args = ["update", "--repository", repo["path"], "--channels", channels,
                "--state-dir", state_dir]
        assert cli.main(args) == 0  # baseline at c
        capsys.readouterr()
        # A cache in the current format, with true generation numbers,
        # that claims every commit, the baseline included, so no walk in
        # authentication reaches c.
        intro = repo["intro"]
        cache = os.path.join(state_dir, "authentication", AuthCache.key_for(intro))
        with open(cache, "w") as fh:
            fh.write(f"introduction {intro.commit.hex} {intro.signer.hex} generations\n")
            fh.writelines(f"{repo[k].hex} {gen:08x}\n" for k, gen in zip("abcd", (0, 1, 2, 2)))
        assert len(AuthCache(state_dir).read(AuthCache.key_for(intro), intro)) == 4
        set_branch(repo["path"], "master", repo["b"])
        assert cli.main(args) == 2
        assert "refusing downgrade" in capsys.readouterr().err
        set_branch(repo["path"], "master", repo["d"])
        assert cli.main(args) == 2
        assert "unrelated" in capsys.readouterr().err
        record = channel.provenance_read(os.path.join(state_dir, "provenance"), "testchan")
        assert record.commit == repo["c"]

    @pytest.mark.parametrize("gen", [1, 5], ids=["below-target", "above-target"])
    def test_recorded_commit_missing_from_clone_is_refused(
            self, tmp_path, state_dir, capsys, gen):
        # The recorded commit is absent from the clone; the cache numbers
        # it below or above the target c, whose generation is 2.
        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        missing = ObjectId.from_hex("ab" * 20)
        os.makedirs(os.path.join(state_dir, "authentication"))
        with open(os.path.join(state_dir, "provenance"), "w") as fh:
            fh.write(f"(provenance (version 0) (channel (name 'testchan) "
                     f"(url \"{repo['primary_url']}\") (branch \"master\") "
                     f"(commit \"{missing.hex}\") (timestamp 0)))\n")
        intro = repo["intro"]
        cache = os.path.join(state_dir, "authentication", AuthCache.key_for(intro))
        with open(cache, "w") as fh:
            fh.write(f"introduction {intro.commit.hex} {intro.signer.hex} generations\n")
            fh.write(f"{missing.hex} {gen:08x}\n")
        args = ["update", "--repository", repo["path"], "--channels", channels,
                "--state-dir", state_dir]
        assert cli.main(args) == 2
        assert "unrelated" in capsys.readouterr().err
        record = channel.provenance_read(os.path.join(state_dir, "provenance"), "testchan")
        assert record.commit == missing

    @pytest.mark.parametrize("gens", [
        {"a": 0, "b": 3, "c": 2, "d": 1},  # downgrade and side branch inverted
        {"a": 9, "b": 2, "c": 2, "d": 2},  # all equal
        {"a": 0, "b": 0, "c": 0xFFFFFFFF, "d": 0xFFFFFFFF},
    ], ids=["inverted", "equal", "extreme"])
    def test_hostile_generations_cannot_accept_downgrade(
            self, tmp_path, state_dir, capsys, gens):
        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        args = ["update", "--repository", repo["path"], "--channels", channels,
                "--state-dir", state_dir]
        assert cli.main(args) == 0  # baseline at c
        # A cache in the current format that claims every commit, with
        # false generation numbers.
        intro = repo["intro"]
        cache = os.path.join(state_dir, "authentication", AuthCache.key_for(intro))
        with open(cache, "w") as fh:
            fh.write(f"introduction {intro.commit.hex} {intro.signer.hex} generations\n")
            fh.writelines(f"{repo[k].hex} {gen:08x}\n" for k, gen in gens.items())
        for tip in ("b", "d", "a"):
            set_branch(repo["path"], "master", repo[tip])
            capsys.readouterr()
            assert cli.main(args) == 2
            # False numbers may only turn a downgrade into "unrelated".
            err = capsys.readouterr().err
            assert "refusing downgrade" in err or "is unrelated" in err
        record = channel.provenance_read(os.path.join(state_dir, "provenance"), "testchan")
        assert record.commit == repo["c"]
        assert len(AuthCache(state_dir).read(AuthCache.key_for(intro), intro)) == 4

    def test_fast_forward_hidden_behind_cached_id(self, tmp_path, state_dir, capsys):
        repo = make_update_repo(tmp_path)
        store, c = repo["store"], repo["c"]
        e = store.add_commit(graph.read_commit(store, c).tree, [c], message="E\n",
                             sign_with=fixtures.signer(repo["alice"]))
        path = fixtures.export_to_disk(store, str(tmp_path / "with-e.git"))
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        args = ["update", "--repository", path, "--channels", channels,
                "--state-dir", state_dir, "--stats"]
        set_branch(path, "master", repo["b"])
        assert cli.main(args) == 0  # baseline at b
        # Sharing the state directory caches c, so the walk from e stops
        # there and never reaches the baseline.
        assert cli.main([
            "authenticate", repo["a"].hex, repo["alice"].fingerprint.display(),
            "--repository", path, "--end", c.hex, "--keyring", "keys",
            "--state-dir", state_dir,
        ]) == 0
        capsys.readouterr()
        set_branch(path, "master", e)
        assert cli.main(args) == 0
        assert "stats: commits walked: 1" in capsys.readouterr().err
        record = channel.provenance_read(os.path.join(state_dir, "provenance"), "testchan")
        assert record.commit == e

    def test_allow_downgrades_overrides(self, tmp_path, state_dir, capsys):
        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        args = ["update", "--repository", repo["path"], "--channels", channels,
                "--state-dir", state_dir]
        assert cli.main(args) == 0
        set_branch(repo["path"], "master", repo["b"])
        assert cli.main(args + ["--allow-downgrades"]) == 0
        record = channel.provenance_read(os.path.join(state_dir, "provenance"), "testchan")
        assert record.commit == repo["b"]

    def test_mirror_warning_exit_zero(self, tmp_path, state_dir, capsys):
        repo = make_update_repo(tmp_path)
        mirror = "https://mirror.example.com/repo"
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", mirror, repo["intro"]
        )
        code = cli.main([
            "update", "--repository", repo["path"], "--channels", channels,
            "--state-dir", state_dir,
        ])
        err = capsys.readouterr().err
        assert code == 0
        assert "might be stale" in err
        assert mirror in err
        assert repo["primary_url"] in err

    def test_auth_failure_exit_one(self, tmp_path, state_dir, capsys):
        repo = make_update_repo(tmp_path)
        zed = fixtures.key("zed")
        bad_intro_channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"],
            type(repo["intro"])(repo["a"], zed.fingerprint),
        )
        code = cli.main([
            "update", "--repository", repo["path"], "--channels", bad_intro_channels,
            "--state-dir", state_dir,
        ])
        assert code == 1
        assert channel.provenance_read(os.path.join(state_dir, "provenance"), "testchan") is None

    def test_keyring_reference_metadata_honored(self, tmp_path, state_dir):
        # keys live on refs/heads/keys, named only by .guix-channel
        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        assert cli.main([
            "update", "--repository", repo["path"], "--channels", channels,
            "--state-dir", state_dir,
        ]) == 0

    def test_staleness_driven_by_authenticated_branch_only(self, tmp_path, state_dir, capsys):
        # a tampered .guix-channel on an unauthenticated side branch
        # must not suppress the warning computed from master's content
        repo = make_update_repo(tmp_path)
        store = repo["store"]
        mirror = "https://mirror.example.com/repo"
        tampered = store.commit_files(
            {
                ".guix-authorizations": fixtures.authz_bytes(repo["alice"], repo["bob"]),
                ".guix-channel": f'(channel (version 0) (url "{mirror}"))'.encode(),
            },
            [repo["c"]], message="attacker branch\n",
        )
        store.set_ref("refs/heads/evil", tampered)
        path = fixtures.export_to_disk(store, str(tmp_path / "with-evil.git"))
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", mirror, repo["intro"]
        )
        code = cli.main([
            "update", "--repository", path, "--channels", channels,
            "--state-dir", state_dir,
        ])
        err = capsys.readouterr().err
        assert code == 0
        # master's authenticated metadata names the true primary URL, so
        # the warning still fires despite the side branch's claim
        assert "might be stale" in err
        assert repo["primary_url"] in err

    def test_malformed_metadata_exit_one_until_the_tip_is_authentic(
        self, tmp_path, state_dir, capsys
    ):
        # The tip's .guix-channel is read before the tip is authenticated.
        # An unauthenticated tip is an authentication failure whatever that
        # file holds; only an authentic tip's file can be a parse error.
        repo = make_update_repo(tmp_path)
        store = repo["store"]
        files = {
            ".guix-authorizations": fixtures.authz_bytes(repo["alice"], repo["bob"]),
            ".guix-channel": b"(channel (version 0",
        }
        forged = store.commit_files(files, [repo["c"]], message="E\n",
                                    sign_with=fixtures.signer(fixtures.key("mallory")))
        signed = store.commit_files(files, [repo["c"]], message="F\n",
                                    sign_with=fixtures.signer(repo["alice"]))
        path = fixtures.export_to_disk(store, str(tmp_path / "malformed.git"))
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        args = ["update", "--repository", path, "--channels", channels,
                "--state-dir", state_dir]
        set_branch(path, "master", forged)
        assert cli.main(args) == 1  # the default keyring branch is missing
        assert cli.main(args + ["--keyring", "keys"]) == 1
        assert "UnknownKey" in capsys.readouterr().err
        set_branch(path, "master", signed)
        assert cli.main(args + ["--keyring", "keys"]) == 3
        assert "SexpSyntaxError" in capsys.readouterr().err
        assert channel.provenance_read(os.path.join(state_dir, "provenance"), "testchan") is None

    def test_concurrent_updates_never_record_the_older_tip(
        self, tmp_path, state_dir, monkeypatch
    ):
        # One update, to b, stops in its check against the baseline a;
        # another, to c (a child of b), runs meanwhile. However the two
        # interleave, the record must end at c.
        repo = make_update_repo(tmp_path)
        channels = write_channels(
            tmp_path / "channels.scm", "testchan", repo["primary_url"], repo["intro"]
        )
        for name in ("base", "old"):
            set_branch(repo["path"], name, repo["a" if name == "base" else "b"])
        args = ["update", "--repository", repo["path"], "--channels", channels,
                "--state-dir", state_dir, "--branch"]
        assert cli.main(args + ["base"]) == 0
        real = channel.fast_forward_check
        entered, release = threading.Event(), threading.Event()
        codes = {}

        def paused(*a, **k):
            if threading.current_thread().name == "old":
                entered.set()
                release.wait(10)
            return real(*a, **k)

        monkeypatch.setattr(channel, "fast_forward_check", paused)
        threads = {
            name: threading.Thread(
                name=name, target=lambda n=name: codes.setdefault(n, cli.main(args + [n])))
            for name in ("old", "master")
        }
        threads["old"].start()
        assert entered.wait(10)
        threads["master"].start()
        threads["master"].join(0.5)  # finishes here only if nothing holds the lock
        release.set()
        for thread in threads.values():
            thread.join(10)
        assert codes == {"old": 0, "master": 0}
        record = channel.provenance_read(os.path.join(state_dir, "provenance"), "testchan")
        assert record.commit == repo["c"]

    def test_missing_channels_file_exit_three(self, tmp_path, state_dir):
        repo = make_update_repo(tmp_path)
        assert cli.main([
            "update", "--repository", repo["path"],
            "--channels", str(tmp_path / "nope.scm"), "--state-dir", state_dir,
        ]) == 3

    def test_channel_without_introduction_exit_three(self, tmp_path, state_dir):
        repo = make_update_repo(tmp_path)
        bad = tmp_path / "bad.scm"
        bad.write_text('(channel (name \'x) (url "https://u"))\n')
        assert cli.main([
            "update", "--repository", repo["path"], "--channels", str(bad),
            "--state-dir", state_dir,
        ]) == 3


class TestDescribeCommand:
    def test_fresh_state_exit_three(self, state_dir, capsys):
        assert cli.main(["describe", "--state-dir", state_dir]) == 3

    def test_transcript_fields(self, tmp_path, state_dir, capsys):
        record = channel.ProvenanceRecord(
            name="guix", url="https://git.savannah.gnu.org/git/guix.git",
            branch="master",
            commit=ObjectId.from_hex("0052c3b0458fba32920a1cfb48b8311429f0d6b5"),
            timestamp=1642011313,
        )
        channel.provenance_write(os.path.join(state_dir, "provenance"), record)
        assert cli.main(["describe", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert "guix 0052c3b" in out
        assert "  repository URL: https://git.savannah.gnu.org/git/guix.git" in out
        assert "  branch: master" in out
        assert "  commit: 0052c3b0458fba32920a1cfb48b8311429f0d6b5" in out

    def test_two_channels_two_stanzas(self, state_dir, capsys):
        path = os.path.join(state_dir, "provenance")
        for name in ("alpha", "beta"):
            channel.provenance_write(path, channel.ProvenanceRecord(
                name=name, url=f"https://{name}", branch="master",
                commit=ObjectId(b"\x11" * 20), timestamp=0,
            ))
        assert cli.main(["describe", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert out.count("repository URL:") == 2
        assert "alpha" in out and "beta" in out

    def test_describe_output_on_stdout_not_stderr(self, state_dir, capsys):
        channel.provenance_write(
            os.path.join(state_dir, "provenance"),
            channel.ProvenanceRecord(
                name="only", url="https://o", branch="b",
                commit=ObjectId(b"\x22" * 20), timestamp=0,
            ),
        )
        cli.main(["describe", "--state-dir", state_dir])
        captured = capsys.readouterr()
        assert "repository URL" in captured.out
        assert "repository URL" not in captured.err


class TestUsage:
    def test_no_command_exit_three(self, capsys):
        assert cli.main([]) == 3

    def test_unknown_flag_exit_three(self, capsys):
        assert cli.main(["describe", "--bogus"]) == 3
