"""Channel specs, metadata, fast-forward verdicts, provenance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitvouch.authgraph import AuthCache, AuthOptions, authenticate_repository
from gitvouch.authz import BadVersion
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
from gitvouch.gitstore import ObjectId
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

    def test_make_record_uses_spec(self):
        spec = parse_channel_spec(FIG6)[0]
        record = make_record(spec, "master", self.RECORD.commit, timestamp=5)
        assert record.name == "my-channel"
        assert record.url == spec.url
        assert record.timestamp == 5
