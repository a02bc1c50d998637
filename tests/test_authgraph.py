"""The authentication engine: invariant enforcement, introductions,
historical mode, keyring loading, and the advisory cache."""

import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitvouch.authgraph import (
    AuthCache,
    AuthOptions,
    ChannelIntroduction,
    EmptyKeyring,
    IntroductionSignerMismatch,
    MissingAuthorizations,
    NotDescendantOfIntroduction,
    Unauthorized,
    Unsigned,
    authenticate_repository,
    load_keyring,
    parent_authorizations,
)
from gitvouch import authz
from gitvouch.authz import BadVersion, parse_authorizations
from gitvouch.errors import VouchError
from gitvouch.gitstore import CorruptObject, MemoryStore, ObjectId, Repository, TreeEntry
from gitvouch.gitstore import objects, repository
from gitvouch.sigverify import BadSignature, UnknownKey, WeakDigest

import fixtures


class TestFig4Scenario:
    def test_authenticates_end_to_end(self):
        fig = fixtures.fig4()
        report = authenticate_repository(fig.store, fig.intro, fig.f)
        assert report.checked == 5
        assert set(report.signers) == {fig.b, fig.c, fig.d, fig.e, fig.f}
        assert report.signers[fig.c] == fig.bob.fingerprint
        assert report.signers[fig.f] == fig.alice.fingerprint

    def test_merge_needs_both_parents(self):
        fig = fixtures.fig4()
        report = authenticate_repository(fig.store, fig.intro, fig.f)
        # F signed by alice, who is authorized by both D and E
        assert report.signers[fig.f] == fig.alice.fingerprint

    def test_unsigned_commit_fails(self):
        fig = fixtures.fig4(mutation="unsigned_c")
        with pytest.raises(Unsigned) as exc:
            authenticate_repository(fig.store, fig.intro, fig.f)
        assert exc.value.commit_id == fig.c.hex

    def test_unlisted_key_fails_unauthorized(self):
        fig = fixtures.fig4(mutation="c_unlisted_key")
        with pytest.raises(Unauthorized) as exc:
            authenticate_repository(fig.store, fig.intro, fig.f)
        assert exc.value.commit_id == fig.c.hex
        assert exc.value.parent == fig.b
        # What b authorized, and the policy blob it came from.
        assert exc.value.authorized == frozenset({fig.alice.fingerprint, fig.bob.fingerprint})
        both = fixtures.authz_bytes(fig.alice, fig.bob)
        assert exc.value.policy == objects.hash_object("blob", both)
        assert f"2 key(s) listed by policy blob {exc.value.policy}" in str(exc.value)

    def test_merge_signer_missing_from_one_parent(self):
        fig = fixtures.fig4(mutation="f_not_in_e")
        with pytest.raises(Unauthorized) as exc:
            authenticate_repository(fig.store, fig.intro, fig.f)
        assert exc.value.commit_id == fig.f.hex
        assert exc.value.parent == fig.e

    def test_authorization_takes_effect_one_commit_later(self):
        # bob cannot sign the very commit that adds him (B's parent A
        # authorizes only alice)
        fig = fixtures.fig4()
        store = fig.store
        both = fixtures.authz_bytes(fig.alice, fig.bob)
        b_by_bob = store.commit_files(
            {".guix-authorizations": both}, [fig.a],
            message="bob adds himself\n", sign_with=fixtures.signer(fig.bob))
        with pytest.raises(Unauthorized):
            authenticate_repository(store, fig.intro, b_by_bob)

    def test_revoked_key_cannot_sign_descendants(self):
        fig = fixtures.fig4()
        store = fig.store
        alice_only = fixtures.authz_bytes(fig.alice)
        revoke = store.commit_files(
            {".guix-authorizations": alice_only}, [fig.f],
            message="remove bob\n", sign_with=fixtures.signer(fig.alice))
        ok_after = store.commit_files(
            {".guix-authorizations": alice_only}, [revoke],
            message="alice continues\n", sign_with=fixtures.signer(fig.alice))
        assert authenticate_repository(fig.store, fig.intro, ok_after).checked == 7

        bob_after = store.commit_files(
            {".guix-authorizations": alice_only}, [revoke],
            message="bob tries\n", sign_with=fixtures.signer(fig.bob))
        with pytest.raises(Unauthorized) as exc:
            authenticate_repository(store, fig.intro, bob_after)
        assert exc.value.parent == revoke


class TestIntroduction:
    def test_target_equals_intro(self):
        fig = fixtures.fig4()
        report = authenticate_repository(fig.store, fig.intro, fig.a)
        assert report.checked == 0

    def test_fig5_cone(self):
        fig = fixtures.fig5()
        for target in (fig.c, fig.d, fig.e, fig.f):
            assert authenticate_repository(fig.store, fig.intro, target)
        for target in (fig.g, fig.h):
            with pytest.raises(NotDescendantOfIntroduction):
                authenticate_repository(fig.store, fig.intro, target)

    def test_intro_ancestors_never_checked(self):
        fig = fixtures.fig5()
        report = authenticate_repository(fig.store, fig.intro, fig.f)
        assert fig.a not in report.signers
        assert fig.b not in report.signers
        assert set(report.signers) == {fig.c, fig.d, fig.e, fig.f}

    def test_signer_mismatch(self):
        fig = fixtures.fig4()
        wrong = ChannelIntroduction(fig.a, fig.bob.fingerprint)
        with pytest.raises(IntroductionSignerMismatch):
            authenticate_repository(fig.store, wrong, fig.f)

    def test_fork_gets_own_introduction(self):
        # a fork starting at E with its own introduction authenticates
        # even though bob is no longer around
        fig = fixtures.fig4()
        fork_intro = ChannelIntroduction(fig.e, fig.alice.fingerprint)
        report = authenticate_repository(fig.store, fork_intro, fig.e)
        assert report.checked == 0


class TestParentAuthorizations:
    def test_reads_policy(self):
        fig = fixtures.fig4()
        fprs = parent_authorizations(fig.store, fig.b, AuthOptions())
        assert fprs == frozenset({fig.alice.fingerprint, fig.bob.fingerprint})

    def test_missing_policy_fatal_without_historical(self):
        repo = fixtures.historical_repo()
        with pytest.raises(MissingAuthorizations):
            parent_authorizations(repo.store, repo.ids[0], AuthOptions())

    def test_missing_policy_uses_historical(self):
        repo = fixtures.historical_repo()
        options = AuthOptions(
            historical_authorizations=parse_authorizations(repo.historical)
        )
        fprs = parent_authorizations(repo.store, repo.ids[0], options)
        assert repo.alice.fingerprint in fprs

    def test_malformed_policy_in_history_is_fatal(self):
        fig = fixtures.fig4()
        bad = fig.store.commit_files(
            {".guix-authorizations": b"(authorizations (version 9) ())"},
            [fig.f], message="break policy\n", sign_with=fixtures.signer(fig.alice))
        child = fig.store.commit_files(
            {".guix-authorizations": fixtures.authz_bytes(fig.alice)},
            [bad], message="child\n", sign_with=fixtures.signer(fig.alice))
        with pytest.raises(BadVersion) as exc:
            authenticate_repository(fig.store, fig.intro, child)
        assert exc.value.commit_id == bad.hex

    def test_non_ascii_tree_mode_fails_closed(self):
        chain = fixtures.bad_tree_mode_chain()
        with pytest.raises(CorruptObject, match="non-ASCII mode") as exc:
            authenticate_repository(chain.store, chain.intro, chain.target)
        assert exc.value.commit_id == chain.target.hex


class TestPolicyReads:
    """One read per commit and one parse per distinct policy blob, with
    the per-parent semantics unchanged."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        calls = []
        real = authz.parse_authorizations

        def counting(data):
            calls.append(bytes(data))
            return real(data)

        monkeypatch.setattr(authz, "parse_authorizations", counting)
        return calls

    def test_cold_run_reads_each_commit_once(self, parsed):
        chain = fixtures.linear_chain(300)
        store = fixtures.CountingStore(chain.store)
        report = authenticate_repository(store, chain.intro, chain.ids[-1])
        assert report.checked == 299
        commit_reads = [n for oid, n in store.reads_by_id.items()
                        if chain.store.read_object(oid).kind == "commit"]
        assert len(commit_reads) == 301  # the chain and the keyring tip
        assert set(commit_reads) == {1}
        assert len(parsed) == report.policies_parsed == 1

    def test_cold_run_hashes_each_commit_read_once(self, tmp_path, monkeypatch):
        # The store checks each payload against the id it was asked for;
        # parsing the commit must not hash it again.
        chain = fixtures.linear_chain(50)
        repo = Repository(fixtures.export_to_disk(chain.store, str(tmp_path / "c.git")))
        hashed, read = [], []
        real_hash, real_read = objects.hash_object, Repository.read_object

        def counting_hash(kind, payload):
            hashed.append(kind)
            return real_hash(kind, payload)

        def counting_read(self, oid):
            obj = real_read(self, oid)
            read.append(obj.kind)
            return obj

        monkeypatch.setattr(objects, "hash_object", counting_hash)
        monkeypatch.setattr(repository, "hash_object", counting_hash)
        monkeypatch.setattr(Repository, "read_object", counting_read)
        report = authenticate_repository(repo, chain.intro, chain.ids[-1])
        assert report.checked == 49
        assert read.count("commit") > 50
        assert hashed.count("commit") == read.count("commit")

    def test_one_parse_per_distinct_blob_per_run(self, parsed):
        fig = fixtures.fig4()
        report = authenticate_repository(fig.store, fig.intro, fig.f)
        assert len(parsed) == len(set(parsed)) == report.policies_parsed == 2
        # The memo lives for one run only.
        authenticate_repository(fig.store, fig.intro, fig.f)
        assert len(parsed) == 4

    @staticmethod
    def _policy_entry_repo(entry: TreeEntry):
        """intro -> b, whose ``.guix-authorizations`` entry is ``entry``,
        -> c, so checking c reads b's policy."""
        alice = fixtures.key("alice")
        store = MemoryStore()
        fixtures.add_keyring_branch(store, [alice])
        sign = fixtures.signer(alice)
        a = store.commit_files({".guix-authorizations": fixtures.authz_bytes(alice)},
                               message="A\n", sign_with=sign)
        b = store.add_commit(store.add_tree([entry(store, a)]), [a], message="B\n",
                             sign_with=sign)
        c = store.commit_files({".guix-authorizations": fixtures.authz_bytes(alice)},
                               [b], message="C\n", sign_with=sign)
        return store, ChannelIntroduction(a, alice.fingerprint), b, c, alice

    @pytest.mark.parametrize("entry", [
        lambda store, a: TreeEntry("40000", ".guix-authorizations",
                                   store.add_tree_from_files({"x": b"()"})),
        lambda store, a: TreeEntry("100644", ".guix-authorizations", a),
        lambda store, a: TreeEntry("100644", "README", store.add_blob(b"no policy\n")),
    ], ids=["tree", "commit", "absent"])
    def test_non_blob_entry_counts_as_missing(self, entry):
        store, intro, b, c, alice = self._policy_entry_repo(entry)
        with pytest.raises(MissingAuthorizations) as exc:
            authenticate_repository(store, intro, c)
        assert exc.value.commit_id == b.hex
        with pytest.raises(MissingAuthorizations):
            parent_authorizations(store, b, AuthOptions())

        # b's parent has the file, so b removed it: the historical list
        # does not stand in for it.
        options = AuthOptions(historical_authorizations=parse_authorizations(
            fixtures.authz_bytes(alice)))
        with pytest.raises(MissingAuthorizations, match="removes") as exc:
            authenticate_repository(store, intro, c, options)
        assert exc.value.commit_id == b.hex
        with pytest.raises(MissingAuthorizations, match="removes"):
            parent_authorizations(store, b, options)

    def test_shared_malformed_blob_blames_first_failing_parent(self):
        fig = fixtures.fig4()
        bad = {".guix-authorizations": b"(authorizations (version 9) ())"}
        sign = fixtures.signer(fig.alice)
        x = fig.store.commit_files(bad, [fig.f], message="X\n", sign_with=sign)
        y = fig.store.commit_files(bad, [fig.f], message="Y\n", sign_with=sign)
        # The merge lists y first, so y is the first parent whose policy
        # is read; the same blob under x is never reached.
        merge = fig.store.commit_files(bad, [y, x], message="M\n", sign_with=sign)
        with pytest.raises(BadVersion) as exc:
            authenticate_repository(fig.store, fig.intro, merge)
        assert exc.value.commit_id == y.hex

        # Along a chain the parent checked first is the older one.
        z = fig.store.commit_files(bad, [x], message="Z\n", sign_with=sign)
        tip = fig.store.commit_files(bad, [z], message="T\n", sign_with=sign)
        with pytest.raises(BadVersion) as exc:
            authenticate_repository(fig.store, fig.intro, tip)
        assert exc.value.commit_id == x.hex


class TestHistoricalMode:
    def test_full_run_requires_historical_list(self):
        repo = fixtures.historical_repo()
        with pytest.raises(MissingAuthorizations):
            authenticate_repository(repo.store, repo.intro, repo.ids[-1])

    def test_full_run_with_historical_list(self):
        repo = fixtures.historical_repo()
        options = AuthOptions(
            historical_authorizations=parse_authorizations(repo.historical)
        )
        report = authenticate_repository(repo.store, repo.intro, repo.ids[-1], options)
        assert report.checked == len(repo.ids) - 1

    def test_historical_list_missing_the_signer(self):
        repo = fixtures.historical_repo()
        options = AuthOptions(
            historical_authorizations=parse_authorizations(
                fixtures.authz_bytes(fixtures.key("charlie"))
            )
        )
        with pytest.raises(Unauthorized):
            authenticate_repository(repo.store, repo.intro, repo.ids[-1], options)

    def test_removing_the_policy_file_is_refused(self):
        """Introduction ``a`` authorizes alice; ``d``, signed by alice,
        deletes ``.guix-authorizations``; ``c``, signed by bob, whom no
        policy file lists, follows ``d``. The historical list names both,
        but it stands in only for history before the file existed: as in
        Guix, the commit that removed the file is refused as a parent."""
        alice, bob = fixtures.key("alice"), fixtures.key("bob")
        store = MemoryStore()
        fixtures.add_keyring_branch(store, [alice, bob])
        a = store.commit_files({".guix-authorizations": fixtures.authz_bytes(alice)},
                               message="a\n", sign_with=fixtures.signer(alice))
        d = store.commit_files({"README": b"no policy\n"}, [a], message="d\n",
                               sign_with=fixtures.signer(alice))
        c = store.commit_files({"README": b"still none\n"}, [d], message="c\n",
                               sign_with=fixtures.signer(bob))
        intro = ChannelIntroduction(a, alice.fingerprint)
        historical = parse_authorizations(fixtures.authz_bytes(alice, bob))
        options = AuthOptions(historical_authorizations=historical)
        assert authenticate_repository(store, intro, d, options).checked == 1
        with pytest.raises(MissingAuthorizations, match=f"commit {d} removes") as exc:
            authenticate_repository(store, intro, c, options)
        assert exc.value.commit_id == d.hex
        ring = load_keyring(store)
        assert fixtures.brute_force_authentic(store, intro, d, ring, historical)
        assert not fixtures.brute_force_authentic(store, intro, c, ring, historical)


class TestUnrelatedRoot:
    """A root other than the introduction, merged into the cone, answers
    to the default (historical) authorizations, as in Guix's
    ``commit-authorized-keys``."""

    @staticmethod
    def merged_root():
        """Introduction ``a``, then ``b``; an unrelated root ``r`` signed
        by mallory, who is in the keyring and authorized by nobody,
        though ``r``'s tree carries ``a``'s policy; and ``m``, a merge
        of ``b`` and ``r`` signed by alice."""
        alice, mallory = fixtures.key("alice"), fixtures.key("mallory")
        store = MemoryStore()
        fixtures.add_keyring_branch(store, [alice, mallory])
        files = {".guix-authorizations": fixtures.authz_bytes(alice)}
        a = store.commit_files(files, message="a\n", sign_with=fixtures.signer(alice))
        b = store.commit_files(files, [a], message="b\n", sign_with=fixtures.signer(alice))
        r = store.commit_files(files, message="r\n", sign_with=fixtures.signer(mallory))
        m = store.commit_files(files, [b, r], message="m\n", sign_with=fixtures.signer(alice))
        intro = ChannelIntroduction(a, alice.fingerprint)
        return store, intro, r, m, load_keyring(store)

    def test_root_fails_without_historical_list(self):
        store, intro, r, m, ring = self.merged_root()
        with pytest.raises(Unauthorized) as exc:
            authenticate_repository(store, intro, m)
        assert exc.value.commit_id == r.hex
        assert exc.value.parent is None
        assert exc.value.authorized == frozenset() and exc.value.policy is None
        assert not fixtures.brute_force_authentic(store, intro, m, ring)

    @pytest.mark.parametrize("listed", [False, True])
    def test_root_checked_against_historical_list(self, listed):
        store, intro, r, m, ring = self.merged_root()
        names = ["alice", "mallory"] if listed else ["alice"]
        historical = parse_authorizations(
            fixtures.authz_bytes(*(fixtures.key(n) for n in names)))
        options = AuthOptions(historical_authorizations=historical)
        assert fixtures.brute_force_authentic(store, intro, m, ring, historical) == listed
        if listed:
            report = authenticate_repository(store, intro, m, options)
            assert report.signers[r] == fixtures.key("mallory").fingerprint
        else:
            with pytest.raises(Unauthorized) as exc:
                authenticate_repository(store, intro, m, options)
            assert exc.value.commit_id == r.hex


class TestKeyring:
    def test_loads_all_keys(self):
        fig = fixtures.fig4()
        ring = load_keyring(fig.store, "refs/heads/keyring")
        assert len(ring) == 3

    def test_nested_directories(self):
        store = MemoryStore()
        keys = [fixtures.key(n) for n in ("alice", "bob", "charlie", "dave")]
        fixtures.add_keyring_branch(store, keys, nested=True)
        ring = load_keyring(store, "refs/heads/keyring")
        assert len(ring) == 4

    def test_non_key_files_skipped_with_warning(self, caplog):
        store = MemoryStore()
        alice = fixtures.key("alice")
        from openpgp_writer import export_public

        cid = store.commit_files(
            {"README": b"not a key\n", "alice.key": export_public(alice).encode()},
            message="keys\n")
        store.set_ref("refs/heads/keyring", cid)
        with caplog.at_level("WARNING"):
            ring = load_keyring(store, "refs/heads/keyring")
        assert len(ring) == 1
        assert any("README" in r.message for r in caplog.records)

    def test_hostile_tree_shapes_read_each_object_once(self):
        # A chain of 3,000 nested trees, and 14 levels of trees whose two
        # entries both name the tree below: 2**14 paths over 15 trees.
        alice = fixtures.key("alice")
        store = MemoryStore()
        key_blob = store.add_blob(fixtures.export_public(alice).encode())
        deep = store.add_tree([TreeEntry("100644", "alice.key", key_blob)])
        for _ in range(3000):
            deep = store.add_tree([TreeEntry("40000", "d", deep)])
        wide = store.add_tree([TreeEntry("100644", "key", key_blob)])
        for _ in range(14):
            wide = store.add_tree([TreeEntry("40000", "a", wide), TreeEntry("40000", "b", wide)])
        root = store.add_tree([TreeEntry("40000", "deep", deep), TreeEntry("40000", "wide", wide)])
        store.set_ref("refs/heads/keyring", store.add_commit(root, message="keys\n"))
        counting = fixtures.CountingStore(store)
        ring = load_keyring(counting, "refs/heads/keyring")
        assert alice.fingerprint in ring
        # The commit, the root, 3,001 + 15 trees and the one blob.
        assert counting.reads == 1 + 1 + 3001 + 15 + 1
        assert max(counting.reads_by_id.values()) == 1

    def test_empty_keyring_fatal(self):
        store = MemoryStore()
        cid = store.commit_files({"README": b"only text\n"}, message="no keys\n")
        store.set_ref("refs/heads/keyring", cid)
        with pytest.raises(EmptyKeyring):
            load_keyring(store, "refs/heads/keyring")

    def test_missing_ref_fatal(self):
        store = MemoryStore()
        from gitvouch.gitstore import ObjectNotFound

        with pytest.raises(ObjectNotFound):
            load_keyring(store, "refs/heads/keyring")

    def test_binary_key_files_accepted(self):
        store = MemoryStore()
        alice = fixtures.key("alice")
        from openpgp_writer import export_public

        cid = store.commit_files(
            {"alice.bin": export_public(alice, armored=False)}, message="keys\n")
        store.set_ref("refs/heads/keyring", cid)
        assert len(load_keyring(store, "refs/heads/keyring")) == 1

    def test_key_file_with_text_before_the_armor_loads(self):
        store = MemoryStore()
        alice = fixtures.key("alice")
        listing = f"pub ed25519 {alice.fingerprint.display()}\n".encode()
        cid = store.commit_files(
            {"alice.key": listing + fixtures.export_public(alice).encode()}, message="keys\n")
        store.set_ref("refs/heads/keyring", cid)
        assert alice.fingerprint in load_keyring(store, "refs/heads/keyring")

    def test_unbound_subkey_cannot_sign_as_its_primary(self):
        # The keyring branch is as untrusted as the rest of the
        # repository: a file that files mallory's key as a subkey of
        # alice's, with no binding signature by alice, must not let
        # mallory sign as alice.
        from openpgp_writer import armor, packet
        from gitvouch.sigverify.packets import TAG_PUBLIC_KEY, TAG_PUBLIC_SUBKEY

        alice, mallory = fixtures.key("alice"), fixtures.key("mallory")
        store = MemoryStore()
        rogue = armor("PUBLIC KEY BLOCK", packet(TAG_PUBLIC_KEY, alice.key_packet_body)
                      + packet(TAG_PUBLIC_SUBKEY, mallory.key_packet_body))
        keys = store.commit_files({"alice.key": fixtures.export_public(alice).encode(),
                                   "zz-rogue.key": rogue.encode()}, message="keys\n")
        store.set_ref("refs/heads/keyring", keys)
        policy = {".guix-authorizations": fixtures.authz_bytes(alice)}
        a = store.commit_files(policy, message="a\n", sign_with=fixtures.signer(alice))
        b = store.commit_files(policy, [a], message="b\n", sign_with=fixtures.signer(mallory))
        with pytest.raises(UnknownKey) as exc:
            authenticate_repository(store, ChannelIntroduction(a, alice.fingerprint), b)
        assert exc.value.commit_id == b.hex

    def test_bound_subkey_signs_for_its_primary(self):
        alice, sub = fixtures.key("alice"), fixtures.key("alice-sub")
        store = MemoryStore()
        keys = store.commit_files(
            {"alice.key": fixtures.export_public(alice, subkeys=(sub,)).encode()},
            message="keys\n")
        store.set_ref("refs/heads/keyring", keys)
        policy = {".guix-authorizations": fixtures.authz_bytes(alice)}
        a = store.commit_files(policy, message="a\n", sign_with=fixtures.signer(alice))
        b = store.commit_files(policy, [a], message="b\n", sign_with=fixtures.signer(sub))
        report = authenticate_repository(store, ChannelIntroduction(a, alice.fingerprint), b)
        assert report.signers == {b: alice.fingerprint}


class TestSignatureErrors:
    def test_unsigned_introduction(self):
        alice = fixtures.key("alice")
        store = MemoryStore()
        fixtures.add_keyring_branch(store, [alice])
        a = store.commit_files(
            {".guix-authorizations": fixtures.authz_bytes(alice)}, message="A\n")
        with pytest.raises(Unsigned) as exc:
            authenticate_repository(
                store, ChannelIntroduction(a, alice.fingerprint), a)
        assert exc.value.commit_id == a.hex

    def test_swapped_signature_detected(self):
        # graft a valid signature over different content onto C
        fig = fixtures.fig4()
        commit_c = fig.store.commit(fig.c)
        foreign = fixtures.signer(fig.bob)(b"completely different payload\n")
        folded = foreign.rstrip("\n").replace("\n", "\n ")
        payload = fig.store.presign_payloads[fig.c]
        head, _, message = payload.partition(b"\n\n")
        forged = head + b"\ngpgsig " + folded.encode() + b"\n\n" + message
        forged_id = fig.store.add_object("commit", forged)
        with pytest.raises(BadSignature) as exc:
            authenticate_repository(fig.store, fig.intro, forged_id)
        assert exc.value.commit_id == forged_id.hex

    def test_tampered_payload_detected(self):
        # rebuild C's commit object with an altered message but the
        # original signature: format corruption -> BadSignature
        fig = fixtures.fig4()
        commit = fig.store.commit(fig.c)
        tampered_payload = commit.raw_payload.replace(b"C\n", b"C!\n")
        tampered = fig.store.add_object("commit", tampered_payload)
        with pytest.raises(BadSignature):
            authenticate_repository(fig.store, fig.intro, tampered)

    def test_signer_not_in_keyring(self):
        fig = fixtures.fig4()
        zed = fixtures.key("zed")
        child = fig.store.commit_files(
            {".guix-authorizations": fixtures.authz_bytes(fig.alice)},
            [fig.f], message="outsider\n", sign_with=fixtures.signer(zed))
        with pytest.raises(UnknownKey) as exc:
            authenticate_repository(fig.store, fig.intro, child)
        assert exc.value.commit_id == child.hex

    def test_weak_digest_commit(self):
        fig = fixtures.fig4()
        child = fig.store.commit_files(
            {".guix-authorizations": fixtures.authz_bytes(fig.alice)},
            [fig.f], message="sha1 signed\n",
            sign_with=fixtures.signer(fig.alice, hash_algorithm="sha1"))
        with pytest.raises(WeakDigest):
            authenticate_repository(fig.store, fig.intro, child)

    def test_tampered_policy_blob_detected(self):
        # swapping B's authorization blob for a different one changes
        # B's tree, hence B's id, hence breaks C's parent link; simulate
        # instead an attacker rewriting B wholesale: the signature check
        # on the rewritten B fails
        fig = fixtures.fig4()
        commit_b = fig.store.commit(fig.b)
        evil_tree = fig.store.add_tree_from_files(
            {".guix-authorizations": fixtures.authz_bytes(fig.charlie)}
        )
        rewritten = commit_b.raw_payload.replace(
            commit_b.tree.hex.encode(), evil_tree.hex.encode()
        )
        evil_b = fig.store.add_object("commit", rewritten)
        with pytest.raises(BadSignature):
            authenticate_repository(
                fig.store, fig.intro, evil_b,
            )


class TestCache:
    def make_options(self, tmp_path):
        return AuthOptions(cache=AuthCache(str(tmp_path / "state")))

    def test_cold_then_warm(self, tmp_path):
        fig = fixtures.fig4()
        options = self.make_options(tmp_path)
        cold = authenticate_repository(fig.store, fig.intro, fig.f, options)
        assert cold.checked == 5 and cold.cache_skipped == 0
        warm = authenticate_repository(fig.store, fig.intro, fig.f, options)
        assert warm.checked == 0 and warm.cache_skipped > 0

    def test_incremental_extension(self, tmp_path):
        fig = fixtures.fig4()
        options = self.make_options(tmp_path)
        authenticate_repository(fig.store, fig.intro, fig.f, options)
        new = fig.store.commit_files(
            {".guix-authorizations": fixtures.authz_bytes(fig.alice, fig.bob)},
            [fig.f], message="new work\n", sign_with=fixtures.signer(fig.bob))
        report = authenticate_repository(fig.store, fig.intro, new, options)
        assert report.checked == 1
        assert set(report.signers) == {new}

    def test_corrupted_cache_degrades_to_full_check(self, tmp_path):
        fig = fixtures.fig4()
        options = self.make_options(tmp_path)
        authenticate_repository(fig.store, fig.intro, fig.f, options)
        key = AuthCache.key_for(fig.intro)
        path = options.cache._path(key)
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfenot hex lines\n\x00garbage")
        report = authenticate_repository(fig.store, fig.intro, fig.f, options)
        assert report.checked == 5  # same verdict as cold
        # the damaged file was replaced, not appended to
        assert authenticate_repository(fig.store, fig.intro, fig.f, options).checked == 0

    def test_cache_is_per_introduction(self, tmp_path):
        fig = fixtures.fig4()
        options = self.make_options(tmp_path)
        authenticate_repository(fig.store, fig.intro, fig.f, options)
        fork = ChannelIntroduction(fig.b, fig.alice.fingerprint)
        report = authenticate_repository(fig.store, fork, fig.f, options)
        assert report.checked == 4  # fork cache starts empty

    def test_cache_read_write_round_trip(self, tmp_path):
        fig = fixtures.fig4()
        cache = AuthCache(str(tmp_path / "state"))
        assert cache.read("k", fig.intro) == set()
        gens = {ObjectId(bytes([i]) * 20): i + 1 for i in range(3)}
        cache.write("k", fig.intro, gens, set())
        assert cache.read("k", fig.intro) == set(gens)
        nine = ObjectId(b"\x09" * 20)
        cache.write("k", fig.intro, {nine: 0xFFFFFFFF}, set(gens))
        cached = cache.read("k", fig.intro)
        assert cached == set(gens) | {nine}
        assert [cached.generation(oid) for oid in (*gens, nine, fig.a)] == [
            1, 2, 3, 0xFFFFFFFF, None]

    def test_cache_file_format(self, tmp_path):
        fig = fixtures.fig4()
        state = str(tmp_path / "state")
        cache = AuthCache(state)
        first = {ObjectId(b"\x03" * 20): 3, ObjectId(b"\x01" * 20): 0x1A}
        second = ObjectId(b"\x02" * 20)
        cache.write("deadbeef", fig.intro, first, set())
        cache.write("deadbeef", fig.intro, {second: 2, **first}, set(first))
        cache.write("deadbeef", fig.intro, {second: 2}, set(first) | {second})
        # A number past 8 hex digits is not recorded.
        cache.write("deadbeef", fig.intro, {fig.b: 1 << 32}, set(first) | {second})
        with open(os.path.join(state, "authentication", "deadbeef")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == (
            f"introduction {fig.a.hex} {fig.alice.fingerprint.hex} generations")
        # the first batch in any order, then only the new id appended
        assert sorted(lines[1:3]) == sorted(f"{oid.hex} {gen:08x}" for oid, gen in first.items())
        assert lines[3:] == [f"{second.hex} 00000002"]

    def test_headerless_cache_counts_as_empty(self, tmp_path):
        fig = fixtures.fig4()
        options = self.make_options(tmp_path)
        path = options.cache._path(AuthCache.key_for(fig.intro))
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as fh:  # the format written before the header
            fh.writelines(oid.hex + "\n" for oid in sorted([fig.d, fig.e, fig.f]))
        report = authenticate_repository(fig.store, fig.intro, fig.f, options)
        assert report.checked == 5 and report.cache_skipped == 0
        warm = authenticate_repository(fig.store, fig.intro, fig.f, options)
        assert warm.checked == 0 and warm.walked == 0

    def test_cache_of_another_introduction_counts_as_empty(self, tmp_path):
        fig = fixtures.fig4()
        options = AuthOptions(cache=AuthCache(str(tmp_path / "state")), cache_key="shared")
        fork = ChannelIntroduction(fig.b, fig.alice.fingerprint)
        authenticate_repository(fig.store, fork, fig.f, options)
        report = authenticate_repository(fig.store, fig.intro, fig.f, options)
        assert report.checked == 5 and report.cache_skipped == 0
        # and the fork, whose file was replaced, re-checks in turn
        report = authenticate_repository(fig.store, fork, fig.f, options)
        assert report.checked == 4

    def test_cached_merge_does_not_vouch_for_its_side_branch(self, tmp_path):
        # M merges the cone (F) with a branch forked before the
        # introduction (H). M passes, but H does not descend from the
        # introduction, so a child of H alone must still be refused.
        fig = fixtures.fig5()
        both = fixtures.authz_bytes(fig.alice, fig.bob)
        sign = fixtures.signer(fig.alice)
        m = fig.store.commit_files({".guix-authorizations": both}, [fig.f, fig.h],
                                   message="M\n", sign_with=sign)
        child = fig.store.commit_files({".guix-authorizations": both}, [fig.h],
                                       message="after H\n", sign_with=sign)
        options = self.make_options(tmp_path)
        assert authenticate_repository(fig.store, fig.intro, m, options).checked == 7
        for opts in (None, options):
            with pytest.raises(NotDescendantOfIntroduction):
                authenticate_repository(fig.store, fig.intro, child, opts)
        recorded = options.cache.read(AuthCache.key_for(fig.intro), fig.intro)
        assert recorded == {fig.c, fig.d, fig.e, fig.f, m}

    def test_introduction_checked_when_nothing_is_new(self, tmp_path):
        fig = fixtures.fig4()
        options = self.make_options(tmp_path)
        authenticate_repository(fig.store, fig.intro, fig.f, options)
        fixtures.add_keyring_branch(fig.store, [fig.bob])  # alice's key is gone
        with pytest.raises(UnknownKey) as exc:
            authenticate_repository(fig.store, fig.intro, fig.f, options)
        assert exc.value.commit_id == fig.a.hex

    def test_warm_reads_do_not_grow_with_history(self, tmp_path):
        reads = {}
        for n in (300, 600):
            chain = fixtures.linear_chain(n)
            store = fixtures.CountingStore(chain.store)
            options = AuthOptions(cache=AuthCache(str(tmp_path / f"s{n}")))
            authenticate_repository(store, chain.intro, chain.ids[-1], options)

            store.reads = 0
            idle = authenticate_repository(store, chain.intro, chain.ids[-1], options)
            idle_reads = store.reads
            assert (idle.checked, idle.walked) == (0, 0)

            alice = fixtures.key("alice")
            new = chain.store.commit_files(
                {".guix-authorizations": fixtures.authz_bytes(alice)},
                [chain.ids[-1]], message="new\n", sign_with=fixtures.signer(alice))
            store.reads = 0
            one = authenticate_repository(store, chain.intro, new, options)
            assert (one.checked, one.walked) == (1, 1)
            reads[n] = (idle_reads, store.reads)
        assert reads[300] == reads[600]

    def test_warm_runs_parse_no_cached_id(self, tmp_path, monkeypatch):
        # Reading the cache and stopping the walk at cached ids must not
        # build an ObjectId per cached id: only the walked commits' own
        # tree and parent ids are parsed.
        calls = [0]
        real = ObjectId.from_hex.__func__

        def counting(cls, text):
            calls[0] += 1
            return real(cls, text)

        counts = {}
        for n in (300, 600):
            chain = fixtures.linear_chain(n)
            options = AuthOptions(cache=AuthCache(str(tmp_path / f"s{n}")))
            authenticate_repository(chain.store, chain.intro, chain.ids[-1], options)
            alice = fixtures.key("alice")
            new = chain.store.commit_files(
                {".guix-authorizations": fixtures.authz_bytes(alice)},
                [chain.ids[-1]], message="new\n", sign_with=fixtures.signer(alice))
            with monkeypatch.context() as patch:
                patch.setattr(ObjectId, "from_hex", classmethod(counting))
                calls[0] = 0
                idle = authenticate_repository(
                    chain.store, chain.intro, chain.ids[-1], options)
                idle_calls = calls[0]
                calls[0] = 0
                one = authenticate_repository(chain.store, chain.intro, new, options)
            assert (idle.walked, idle.cache_skipped) == (0, 1)
            assert (one.walked, one.cache_skipped) == (1, 1)
            counts[n] = (idle_calls, calls[0])
        assert counts[300] == counts[600]

    @pytest.mark.parametrize("damage", [
        "truncated_mid_line", "uppercase_line", "crlf", "stray_byte",
        "non_hex_byte", "no_final_newline",
    ])
    def test_damaged_cache_file_reads_as_empty(self, tmp_path, caplog, damage):
        fig = fixtures.fig4()
        options = self.make_options(tmp_path)
        key = AuthCache.key_for(fig.intro)
        authenticate_repository(fig.store, fig.intro, fig.f, options)
        recorded = options.cache.read(key, fig.intro)
        assert len(recorded) == 5
        path = options.cache._path(key)
        with open(path, "rb") as fh:
            intact = fh.read()
        header, _, body = intact.partition(b"\n")
        header += b"\n"
        body = {
            "truncated_mid_line": body[:-10],
            "uppercase_line": body[:41].upper() + body[41:],
            "crlf": body.replace(b"\n", b"\r\n"),
            "stray_byte": body[:41] + b" " + body[41:],
            "non_hex_byte": body[:5] + b"g" + body[6:],
            "no_final_newline": body[:-1],
        }[damage]
        with open(path, "wb") as fh:
            fh.write(header + body)
        with caplog.at_level("WARNING"):
            assert options.cache.read(key, fig.intro) == set()
        assert "unparsable" in caplog.text
        report = authenticate_repository(fig.store, fig.intro, fig.f, options)
        assert (report.checked, report.cache_skipped) == (5, 0)
        # The next run replaced the file rather than appending to it.
        assert options.cache.read(key, fig.intro) == recorded
        assert authenticate_repository(fig.store, fig.intro, fig.f, options).checked == 0

    @settings(max_examples=200, deadline=None)
    @given(edits=st.lists(
        st.tuples(st.sampled_from(["flip", "insert", "delete"]), st.integers(0, 10_000),
                  st.sampled_from(b"0123456789abcdefABG \n\r\x00")),
        min_size=1, max_size=4))
    def test_reader_accepts_exactly_the_line_grammar(self, tmp_path_factory, edits):
        # The byte-level checks accept a body iff every line is an id in
        # 40 lowercase hex digits, a space and 8 lowercase hex digits.
        fig = fixtures.fig4()
        cache = AuthCache(str(tmp_path_factory.mktemp("state")))
        cache.write("k", fig.intro, {ObjectId(bytes([i]) * 20): i for i in range(4)}, set())
        path = cache._path("k")
        with open(path, "rb") as fh:
            header, _, body = fh.read().partition(b"\n")
        body = bytearray(body)
        for op, pos, byte in edits:
            pos %= len(body) + 1
            if op == "flip" and pos < len(body):
                body[pos] = byte
            elif op == "insert":
                body.insert(pos, byte)
            elif op == "delete":
                del body[pos:pos + 1]
        with open(path, "wb") as fh:
            fh.write(header + b"\n" + body)
        lines = bytes(body).split(b"\n")
        expected = {}
        if lines[-1] == b"" and all(re.fullmatch(rb"[0-9a-f]{40} [0-9a-f]{8}", line)
                                    for line in lines[:-1]):
            expected = {ObjectId.from_hex(line[:40]): int(line[41:], 16)
                        for line in lines[:-1]}
        cached = cache.read("k", fig.intro)
        assert {oid: cached.generation(oid) for oid in cached} == expected

    def test_cache_read_is_a_read_only_set(self, tmp_path):
        fig = fixtures.fig4()
        cache = AuthCache(str(tmp_path / "state"))
        ids = {ObjectId(bytes([i]) * 20) for i in range(3)}
        cache.write("k", fig.intro, dict.fromkeys(ids, 1), set())
        cached = cache.read("k", fig.intro)
        assert len(cached) == 3 and ObjectId(b"\x01" * 20) in cached
        assert ObjectId(b"\x07" * 20) not in cached and "not an id" not in cached
        assert type(cached | {fig.a}) is set and cached | {fig.a} == ids | {fig.a}
        assert type(cached - ids) is set and not cached - ids
        assert {fig.a} - cached == {fig.a} and ids & cached == ids
        assert not hasattr(cached, "add")

    def test_unwritable_cache_is_nonfatal(self, tmp_path, caplog):
        fig = fixtures.fig4()
        blocked = tmp_path / "state"
        blocked.write_text("a file, not a directory")
        options = AuthOptions(cache=AuthCache(str(blocked)))
        with caplog.at_level("WARNING"):
            report = authenticate_repository(fig.store, fig.intro, fig.f, options)
        assert report.checked == 5

    def test_results_identical_cold_warm_corrupt(self, tmp_path):
        for mutation, expected in [
            (None, None),
            ("unsigned_c", Unsigned),
            ("c_unlisted_key", Unauthorized),
            ("f_not_in_e", Unauthorized),
        ]:
            fig = fixtures.fig4(mutation)
            options = AuthOptions(cache=AuthCache(str(tmp_path / f"s-{mutation}")))
            outcomes = []
            for stage in ("cold", "warm", "corrupt"):
                if stage == "corrupt":
                    path = options.cache._path(AuthCache.key_for(fig.intro))
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    with open(path, "wb") as fh:
                        fh.write(b"garbage\x00")
                try:
                    authenticate_repository(fig.store, fig.intro, fig.f, options)
                    outcomes.append(None)
                except VouchError as exc:
                    outcomes.append(type(exc))
            assert outcomes == [expected] * 3


class TestOracleEquivalence:
    def test_random_repositories_match_brute_force(self):
        rng = random.Random(20260811)
        agreements = 0
        for _ in range(60):
            repo = fixtures.random_repository(rng, max_commits=24)
            ring = load_keyring(repo.store, "refs/heads/keyring")
            options = AuthOptions(historical_authorizations=repo.historical)
            try:
                authenticate_repository(repo.store, repo.intro, repo.target, options)
                engine_ok = True
            except VouchError:
                engine_ok = False
            brute_ok = fixtures.brute_force_authentic(
                repo.store, repo.intro, repo.target, ring, repo.historical
            )
            assert engine_ok == brute_ok == repo.expect_ok
            agreements += 1
        assert agreements == 60

    def test_cache_primed_repositories_match_brute_force(self, tmp_path):
        # The same 60 repositories as above; a second generator picks,
        # in each, a commit to authenticate first with the cache,
        # whatever its verdict, before the target with the same cache.
        rng = random.Random(20260811)
        pick = random.Random(20261018)
        for i in range(60):
            repo = fixtures.random_repository(rng, max_commits=24)
            ring = load_keyring(repo.store, "refs/heads/keyring")
            primer = pick.choice(sorted(
                oid for oid, obj in repo.store.objects() if obj.kind == "commit"))
            options = AuthOptions(cache=AuthCache(str(tmp_path / f"s{i}")),
                                  historical_authorizations=repo.historical)
            uncached = AuthOptions(historical_authorizations=repo.historical)
            verdicts = []
            for opts, target in ((options, primer), (options, repo.target),
                                 (uncached, repo.target)):
                try:
                    authenticate_repository(repo.store, repo.intro, target, opts)
                    verdicts.append(True)
                except VouchError:
                    verdicts.append(False)
            assert verdicts[0] == fixtures.brute_force_authentic(
                repo.store, repo.intro, primer, ring, repo.historical)
            assert verdicts[1] == verdicts[2] == fixtures.brute_force_authentic(
                repo.store, repo.intro, repo.target, ring, repo.historical)
