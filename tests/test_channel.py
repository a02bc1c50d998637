"""Channel specs, metadata, fast-forward verdicts, provenance."""

import os
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitvouch.authgraph import (
    AuthCache,
    AuthOptions,
    ChannelIntroduction,
    authenticate_repository,
)
from gitvouch import channel
from gitvouch.authz import BadVersion, parse_authorizations
from gitvouch.channel import (
    ChannelMetadata,
    FastForwardVerdict,
    MissingIntroduction,
    ProvenanceRecord,
    fast_forward_check,
    make_record,
    parse_channel_metadata,
    parse_channel_spec,
    provenance_read,
    provenance_read_all,
    provenance_write,
    staleness_check,
)
from gitvouch.errors import VouchError
from gitvouch.gitstore import MemoryStore, ObjectId, graph
from gitvouch.sexp import SexpSyntaxError
from gitvouch.sigverify import Fingerprint

import fixtures
from test_graph import build_dag, brute_closure, dag_strategy

# as printed in the channel-introduction figure (the stray trailing
# paren from the publication is preserved on purpose)
FIG6 = """(channel
  (name 'my-channel)
  (url "https://example.org/my-channel.git")
  (introduction
    (make-channel-introduction
      "6f0d8cc0d88abb59c324b2990bfee2876016bb86"
      (openpgp-fingerprint
        "CABB A931 C0FF EEC6 900D 0CFB 090B 1199 3D9A EBB5")))))"""


class TestChannelSpec:
    def test_paper_example_verbatim(self):
        specs = parse_channel_spec(FIG6)
        assert len(specs) == 1
        spec = specs[0]
        assert spec.name == "my-channel"
        assert spec.url == "https://example.org/my-channel.git"
        assert spec.introduction.commit.hex == "6f0d8cc0d88abb59c324b2990bfee2876016bb86"
        assert spec.introduction.signer == Fingerprint.parse(
            "CABB A931 C0FF EEC6 900D 0CFB 090B 1199 3D9A EBB5"
        )

    def test_empty_file(self):
        assert parse_channel_spec("") == []
        assert parse_channel_spec("; just a comment\n") == []

    def test_missing_introduction_rejected(self):
        with pytest.raises(MissingIntroduction):
            parse_channel_spec('(channel (name \'x) (url "https://x"))')

    def test_list_wrapper_and_multiple_channels(self):
        text = f"(list {FIG6.rstrip().rstrip(')')})\n"
        # build a two-channel file
        one = FIG6.rstrip()[:-1]  # drop the stray paren
        text = f"(list {one} {one.replace('my-channel', 'other')})"
        specs = parse_channel_spec(text)
        assert [s.name for s in specs] == ["my-channel", "other"]

    def test_bad_commit_hex(self):
        bad = FIG6.replace("6f0d8cc0d88abb59c324b2990bfee2876016bb86", "nothex")
        with pytest.raises(SexpSyntaxError):
            parse_channel_spec(bad)


class TestChannelMetadata:
    def test_with_primary_url(self):
        meta = parse_channel_metadata(
            '(channel (version 0) (url "https://git.savannah.gnu.org/git/guix.git"))'
        )
        assert meta.primary_url == "https://git.savannah.gnu.org/git/guix.git"
        assert meta.keyring_ref is None

    def test_minimal(self):
        meta = parse_channel_metadata("(channel (version 0))")
        assert meta.primary_url is None and meta.keyring_ref is None

    def test_keyring_reference(self):
        meta = parse_channel_metadata('(channel (version 0) (keyring-reference "keys"))')
        assert meta.keyring_ref == "keys"

    def test_bad_version(self):
        with pytest.raises(BadVersion):
            parse_channel_metadata("(channel (version 7))")
        with pytest.raises(BadVersion):
            parse_channel_metadata("(channel)")

    def test_unknown_forms_ignored(self):
        meta = parse_channel_metadata(
            '(channel (version 0) (news-file "news.txt") (url "https://u"))'
        )
        assert meta.primary_url == "https://u"


class TestFastForward:
    def test_paper_cases_on_fig4(self):
        fig = fixtures.fig4()
        assert fast_forward_check(fig.store, fig.a, fig.f) is FastForwardVerdict.FAST_FORWARD
        assert fast_forward_check(fig.store, fig.f, fig.a) is FastForwardVerdict.DOWNGRADE
        assert fast_forward_check(fig.store, fig.d, fig.e) is FastForwardVerdict.UNRELATED
        assert fast_forward_check(fig.store, fig.f, fig.f) is FastForwardVerdict.SAME

    @settings(max_examples=40, deadline=None)
    @given(parent_choices=dag_strategy, data=st.data())
    def test_trichotomy_matches_brute_force(self, parent_choices, data):
        store, ids = build_dag(parent_choices)
        n = len(ids)
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=0, max_value=n - 1))
        verdict = fast_forward_check(store, ids[a], ids[b])
        # Any subset of b's true ancestors-or-self is a valid proof.
        proved = data.draw(st.sets(st.sampled_from(sorted(brute_closure(parent_choices, b)))))
        proved_verdict = fast_forward_check(store, ids[a], ids[b], {ids[i] for i in proved})

        a_anc_b = a in brute_closure(parent_choices, b)
        b_anc_a = b in brute_closure(parent_choices, a)
        if a == b:
            expected = FastForwardVerdict.SAME
        elif a_anc_b:
            expected = FastForwardVerdict.FAST_FORWARD
        elif b_anc_a:
            expected = FastForwardVerdict.DOWNGRADE
        else:
            expected = FastForwardVerdict.UNRELATED
        assert verdict is expected
        assert proved_verdict is expected

        # antisymmetry on strict pairs
        reverse = fast_forward_check(store, ids[b], ids[a])
        if verdict is FastForwardVerdict.FAST_FORWARD:
            assert reverse is FastForwardVerdict.DOWNGRADE
        if verdict is FastForwardVerdict.DOWNGRADE:
            assert reverse is FastForwardVerdict.FAST_FORWARD

    def test_downgrade_reads_do_not_grow_with_history(self, tmp_path):
        reads = {}
        for n in (300, 600):
            chain = fixtures.linear_chain(n)
            store = fixtures.CountingStore(chain.store)
            options = AuthOptions(cache=AuthCache(str(tmp_path / f"s{n}")))
            authenticate_repository(store, chain.intro, chain.ids[-1], options)

            store.reads = 0
            older = chain.ids[-51]
            report = authenticate_repository(store, chain.intro, older, options)
            verdict = fast_forward_check(store, chain.ids[-1], older, report.ancestors)
            assert verdict is FastForwardVerdict.DOWNGRADE
            reads[n] = store.reads
        assert reads[300] == reads[600]

    def test_hidden_fast_forward_reads_do_not_grow_with_history(self, tmp_path):
        reads = {}
        for n in (300, 600):
            chain = fixtures.linear_chain(n)
            store = fixtures.CountingStore(chain.store)
            options = AuthOptions(cache=AuthCache(str(tmp_path / f"s{n}")))
            baseline = chain.ids[-51]
            authenticate_repository(store, chain.intro, baseline, options)
            # Another run caches a newer commit, so the walk from the
            # target stops there and never reaches the baseline.
            authenticate_repository(store, chain.intro, chain.ids[-2], options)

            store.reads = 0
            report = authenticate_repository(store, chain.intro, chain.ids[-1], options)
            assert baseline not in report.ancestors
            verdict = fast_forward_check(store, baseline, chain.ids[-1], report.ancestors)
            assert verdict is FastForwardVerdict.FAST_FORWARD
            reads[n] = store.reads
        assert reads[300] == reads[600]

    def test_fast_forward_from_report_reads_nothing(self, tmp_path):
        chain = fixtures.linear_chain(60)
        store = fixtures.CountingStore(chain.store)
        options = AuthOptions(cache=AuthCache(str(tmp_path)))
        authenticate_repository(store, chain.intro, chain.ids[30], options)
        report = authenticate_repository(store, chain.intro, chain.ids[-1], options)
        assert report.walked == 29

        store.reads = 0
        # A cached id the walk stopped at, and a commit it walked.
        for baseline in (chain.ids[30], chain.ids[45]):
            verdict = fast_forward_check(store, baseline, chain.ids[-1], report.ancestors)
            assert verdict is FastForwardVerdict.FAST_FORWARD
        assert store.reads == 0


def _history(store) -> tuple[list[ObjectId], dict[ObjectId, tuple[ObjectId, ...]]]:
    """Every commit in ``store`` (sorted by id) and its parents."""
    ids = sorted(oid for oid, obj in store.objects() if obj.kind == "commit")
    return ids, {oid: graph.read_commit(store, oid).parents for oid in ids}


def _brute_verdict(store, current: ObjectId, target: ObjectId) -> FastForwardVerdict:
    if current == target:
        return FastForwardVerdict.SAME
    if current in fixtures._closure(store, target):
        return FastForwardVerdict.FAST_FORWARD
    if target in fixtures._closure(store, current):
        return FastForwardVerdict.DOWNGRADE
    return FastForwardVerdict.UNRELATED


def _brute_generations(store, intro: ObjectId) -> dict[ObjectId, int]:
    """The longest path from ``intro`` to each of its descendants, over
    its descendants only."""
    ids, parents = _history(store)
    cone = {oid for oid in ids if intro in fixtures._closure(store, oid)}
    gens = {intro: 0}

    def gen(oid):
        if oid not in gens:
            gens[oid] = 1 + max(gen(p) for p in parents[oid] if p in cone)
        return gens[oid]

    for oid in cone:
        gen(oid)
    return gens


class TestGenerations:
    """Generation numbers in the cache only prune the walks of
    ``fast_forward_check``: true numbers keep every verdict, and false
    ones can only turn a verdict into a refusal."""

    def cached_chain(self, tmp_path, n: int):
        chain = fixtures.linear_chain(n)
        options = AuthOptions(cache=AuthCache(str(tmp_path / "state")))
        authenticate_repository(chain.store, chain.intro, chain.ids[-1], options)
        return chain, options

    @pytest.mark.parametrize("k", [1, 2, 10, 50, 199])
    def test_downgrade_reads_at_most_the_gap(self, tmp_path, k):
        chain, options = self.cached_chain(tmp_path, 200)
        store = fixtures.CountingStore(chain.store)
        older = chain.ids[-1 - k]
        report = authenticate_repository(store, chain.intro, older, options)
        assert report.generation(chain.ids[-1]) == 199 and report.generation(older) == 199 - k
        store.reads = 0
        verdict = fast_forward_check(store, chain.ids[-1], older, report.ancestors,
                                     report.generation)
        assert verdict is FastForwardVerdict.DOWNGRADE
        assert store.reads <= k + 1

    @pytest.mark.parametrize("shape", ["forked before the introduction", "foreign root"])
    def test_downgrade_past_an_unnumbered_branch_reads_the_gap_of_it(self, tmp_path, shape):
        # A 150-commit branch the cache does not number, merged as the
        # second parent 10 commits below the tip: a branch forked from
        # the introduction's parent, or an unrelated root's history. A
        # downgrade 20 back reads about 20 levels of it, not all of it.
        alice = fixtures.key("alice")
        store = MemoryStore()
        fixtures.add_keyring_branch(store, [alice])
        files = {".guix-authorizations": fixtures.authz_bytes(alice)}
        sign = fixtures.signer(alice)
        fork = store.commit_files(files, [], message="fork\n", sign_with=sign)
        main = [store.commit_files(files, [fork], message="intro\n", sign_with=sign)]
        side = [] if shape == "foreign root" else [fork]
        for i in range(150):
            side = [store.commit_files(files, side, message=f"side {i}\n", sign_with=sign)]
        for i in range(40):
            parents = [main[-1]] + (side if i == 30 else [])
            main.append(store.commit_files(files, parents, message=f"main {i}\n",
                                           sign_with=sign))
        intro = ChannelIntroduction(main[0], alice.fingerprint)
        options = AuthOptions(cache=AuthCache(str(tmp_path / "state")),
                              historical_authorizations=parse_authorizations(
                                  fixtures.authz_bytes(alice)))
        authenticate_repository(store, intro, main[-1], options)
        report = authenticate_repository(store, intro, main[-21], options)
        assert report.generation(side[0]) is None
        counting = fixtures.CountingStore(store)
        verdict = fast_forward_check(counting, main[-1], main[-21], report.ancestors,
                                     report.generation)
        assert verdict is FastForwardVerdict.DOWNGRADE
        # 10 commits above the merge, then two per level down to the
        # target's child.
        assert counting.reads <= 10 + 2 * 10

    def test_hidden_fast_forward_reads_at_most_the_gap(self, tmp_path):
        chain, options = self.cached_chain(tmp_path, 200)
        store = fixtures.CountingStore(chain.store)
        baseline = chain.ids[150]
        report = authenticate_repository(store, chain.intro, chain.ids[-1], options)
        assert baseline not in report.ancestors
        store.reads = 0
        verdict = fast_forward_check(store, baseline, chain.ids[-1], report.ancestors,
                                     report.generation)
        assert verdict is FastForwardVerdict.FAST_FORWARD
        assert store.reads <= 49 + 1

    def test_unrelated_tip_walks_only_between_the_generations(self, tmp_path):
        # fig4's generations: a 0, b 1, c 2, d 3, e 2, f 4 (d's parent is
        # c, e's is b, f merges d and e).
        fig = fixtures.fig4()
        options = AuthOptions(cache=AuthCache(str(tmp_path / "state")))
        authenticate_repository(fig.store, fig.intro, fig.f, options)
        store = fixtures.CountingStore(fig.store)
        reads = {}
        for current, target in ((fig.c, fig.e), (fig.e, fig.c), (fig.d, fig.e),
                                (fig.e, fig.d), (fig.f, fig.c), (fig.c, fig.b)):
            report = authenticate_repository(store, fig.intro, target, options)
            store.reads = 0
            verdict = fast_forward_check(store, current, target, report.ancestors,
                                         report.generation)
            assert verdict is _brute_verdict(fig.store, current, target)
            reads[current, target] = store.reads
        # Equal numbers read nothing; a walk reads nothing numbered at
        # or below the commit it looks for.
        assert reads == {(fig.c, fig.e): 0, (fig.e, fig.c): 0, (fig.d, fig.e): 1,
                         (fig.e, fig.d): 1, (fig.f, fig.c): 2, (fig.c, fig.b): 1}

    def test_unnumbered_tip_prunes_the_walk_that_looks_for_a_numbered_one(self, tmp_path):
        # A 50-commit branch forked at ids[100] that no run has cached,
        # against ids[150]: the walk down the branch stops at ids[100],
        # numbered below the target, and only the walk from the target,
        # which has no number to stop at, reads down to the root.
        chain = fixtures.linear_chain(200)
        options = AuthOptions(cache=AuthCache(str(tmp_path / "state")))
        target = chain.ids[150]
        report = authenticate_repository(chain.store, chain.intro, target, options)
        tree = graph.read_commit(chain.store, chain.ids[100]).tree
        current = chain.ids[100]
        for i in range(50):
            current = chain.store.add_commit(tree, [current], message=f"fork {i}\n")
        assert report.generation(current) is None and report.generation(target) == 150
        store = fixtures.CountingStore(chain.store)
        verdict = fast_forward_check(store, current, target, report.ancestors,
                                     report.generation)
        assert verdict is FastForwardVerdict.UNRELATED
        assert store.reads <= 50 + 151

    @pytest.mark.parametrize("corruption", ["raise", "lower", "swap", "zero", "max", "shuffle"])
    def test_false_generations_never_accept_a_downgrade(self, tmp_path, corruption):
        # 30 commits, each on one or two earlier ones, all signed by alice.
        alice = fixtures.key("alice")
        store = MemoryStore()
        fixtures.add_keyring_branch(store, [alice])
        files = {".guix-authorizations": fixtures.authz_bytes(alice)}
        rng = random.Random(20261020)
        ids: list[ObjectId] = []
        for i in range(30):
            parents = rng.sample(ids, min(len(ids), rng.choice([1, 1, 2])))
            ids.append(store.commit_files(files, parents, message=f"{i}\n",
                                          sign_with=fixtures.signer(alice)))
        intro = ChannelIntroduction(ids[0], alice.fingerprint)
        options = AuthOptions(cache=AuthCache(str(tmp_path / "state")))
        for oid in ids:
            authenticate_repository(store, intro, oid, options)
        path = options.cache._path(AuthCache.key_for(intro))
        with open(path, "rb") as fh:
            header, *lines = fh.read().decode().splitlines()
        assert len(lines) == 29
        gens = [int(line[41:], 16) for line in lines]
        gens = {
            "raise": [g + 5 for g in gens],
            "lower": [max(g - 5, 0) for g in gens],
            "swap": [gens[-1 - i] for i in range(len(gens))],
            "zero": [0] * len(gens),
            "max": [0xFFFFFFFF] * len(gens),
            "shuffle": random.Random(7).sample(gens, len(gens)),
        }[corruption]
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.writelines(f"{line[:40]} {g:08x}\n" for line, g in zip(lines, gens))

        refused = {FastForwardVerdict.DOWNGRADE, FastForwardVerdict.UNRELATED}
        downgrades = 0
        for target in ids:
            report = authenticate_repository(store, intro, target, options)
            assert report.checked == 0
            for current in ids:
                if target in fixtures._closure(store, current) and current != target:
                    verdict = fast_forward_check(store, current, target,
                                                 report.ancestors, report.generation)
                    assert verdict in refused
                    downgrades += 1
        assert downgrades >= 50

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_generations_keep_every_verdict(self, tmp_path_factory, seed):
        repo = fixtures.random_repository(random.Random(seed), max_commits=16)
        state = tmp_path_factory.mktemp("state")
        options = AuthOptions(cache=AuthCache(str(state)),
                              historical_authorizations=repo.historical)
        ids, _ = _history(repo.store)
        for oid in random.Random(seed).sample(ids, len(ids)):
            try:
                authenticate_repository(repo.store, repo.intro, oid, options)
            except VouchError:
                pass
        cached = options.cache.read(AuthCache.key_for(repo.intro), repo.intro)
        truth = _brute_generations(repo.store, repo.intro.commit)
        assert {oid: cached.generation(oid) for oid in cached} == {
            oid: truth[oid] for oid in cached}

        def generation(oid):
            return 0 if oid == repo.intro.commit else cached.generation(oid)

        store = fixtures.CountingStore(repo.store)
        for current in ids:
            for target in ids:
                expected = _brute_verdict(repo.store, current, target)
                assert fast_forward_check(repo.store, current, target) is expected
                store.reads_by_id.clear()
                assert fast_forward_check(store, current, target, frozenset(),
                                          generation) is expected
                # A pruned walk reads no commit numbered at or below the
                # lower of the two tips, but for ``current`` itself.
                gens = [generation(current), generation(target)]
                if None not in gens:
                    assert all(generation(oid) is None or generation(oid) > min(gens)
                               for oid in store.reads_by_id if oid != current)


class TestStaleness:
    META = ChannelMetadata(primary_url="https://git.savannah.gnu.org/git/guix.git")

    def test_mirror_warns_with_both_urls(self):
        warning = staleness_check("https://github.com/guix-mirror/guix", self.META)
        assert warning is not None
        assert "might be stale" in warning
        assert "https://github.com/guix-mirror/guix" in warning
        assert "https://git.savannah.gnu.org/git/guix.git" in warning

    def test_primary_url_no_warning(self):
        assert staleness_check("https://git.savannah.gnu.org/git/guix.git", self.META) is None

    def test_trailing_slash_normalized(self):
        assert staleness_check("https://git.savannah.gnu.org/git/guix.git/", self.META) is None

    def test_no_metadata_url_no_warning(self):
        assert staleness_check("https://anywhere", ChannelMetadata()) is None


class TestProvenance:
    RECORD = ProvenanceRecord(
        name="guix",
        url="https://git.savannah.gnu.org/git/guix.git",
        branch="master",
        commit=ObjectId.from_hex("d904abe0768293b2322dbf355b6e41d94e769d78"),
        timestamp=1619555053,
    )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "provenance")
        provenance_write(path, self.RECORD)
        assert provenance_read(path, "guix") == self.RECORD
        assert provenance_read(path, "other") is None

    def test_absent_file_reads_none(self, tmp_path):
        path = str(tmp_path / "nope")
        assert provenance_read_all(path) == []
        assert provenance_read(path, "guix") is None

    def test_corrupt_file_is_fatal(self, tmp_path):
        path = str(tmp_path / "provenance")
        with open(path, "w") as fh:
            fh.write("(provenance (version 0) (channel")
        with pytest.raises(SexpSyntaxError):
            provenance_read_all(path)

    def test_wrong_version_is_fatal(self, tmp_path):
        path = str(tmp_path / "provenance")
        with open(path, "w") as fh:
            fh.write("(provenance (version 9))")
        with pytest.raises(BadVersion):
            provenance_read_all(path)

    def test_other_channels_preserved_on_rewrite(self, tmp_path):
        path = str(tmp_path / "provenance")
        provenance_write(path, self.RECORD)
        other = ProvenanceRecord(
            name="extra", url="https://x", branch="main",
            commit=ObjectId.from_hex("0052c3b0458fba32920a1cfb48b8311429f0d6b5"),
            timestamp=1,
        )
        provenance_write(path, other)
        updated = ProvenanceRecord(
            name="guix", url=self.RECORD.url, branch="master",
            commit=ObjectId.from_hex("0052c3b0458fba32920a1cfb48b8311429f0d6b5"),
            timestamp=2,
        )
        provenance_write(path, updated)
        records = {r.name: r for r in provenance_read_all(path)}
        assert records["extra"] == other
        assert records["guix"] == updated

    def test_concurrent_write_between_read_and_replace_kept(self, tmp_path, monkeypatch):
        # A second writer starts after this one has read the file and
        # before it replaces it. Without a lock that writer finishes
        # inside the window and its record is then overwritten.
        path = str(tmp_path / "provenance")
        other = ProvenanceRecord(
            name="extra", url="https://x", branch="main",
            commit=ObjectId.from_hex("0052c3b0458fba32920a1cfb48b8311429f0d6b5"),
            timestamp=1,
        )
        read_all = channel.provenance_read_all
        writers = []

        def read_then_race(p):
            records = read_all(p)
            if not writers:
                writers.append(threading.Thread(target=provenance_write, args=(path, other)))
                writers[0].start()
                writers[0].join(timeout=0.5)
            return records

        monkeypatch.setattr(channel, "provenance_read_all", read_then_race)
        provenance_write(path, self.RECORD)
        writers[0].join()
        records = {r.name: r for r in read_all(path)}
        assert records == {"guix": self.RECORD, "extra": other}

    def test_failed_replace_leaves_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = str(tmp_path / "provenance")
        provenance_write(path, self.RECORD)
        with open(path, "rb") as fh:
            before = fh.read()

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            provenance_write(path, make_record(parse_channel_spec(FIG6)[0], "master",
                                               self.RECORD.commit, timestamp=5))
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert sorted(os.listdir(tmp_path)) == ["provenance", "provenance.lock"]

    def test_make_record_uses_spec(self):
        spec = parse_channel_spec(FIG6)[0]
        record = make_record(spec, "master", self.RECORD.commit, timestamp=5)
        assert record.name == "my-channel"
        assert record.url == spec.url
        assert record.timestamp == 5
