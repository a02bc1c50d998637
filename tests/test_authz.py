"""Authorization policy file parsing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gitvouch.authz import (
    AuthorizationEntry,
    AuthorizationList,
    BadFingerprint,
    BadVersion,
    authorized_fingerprints,
    parse_authorizations,
)
from gitvouch.sexp import SexpSyntaxError
from gitvouch.sigverify import Fingerprint

from openpgp_writer import print_authorizations

FIG3 = '''(authorizations
 (version 0)                               ;current file format version

 ((("AD17 A21E F8AE D8F1 CC02 DBD9 F8AE D8F1 765C 61E3"
   (name "alice"))
  ("2A39 3FFF 68F4 EF7A 3D29 12AF 68F4 EF7A 22FB B2D5"
   (name "bob"))
  ("CABB A931 C0FF EEC6 900D 0CFB 090B 1199 3D9A EBB5"
   (name "charlie")))))'''

CHARLIE = "CABB A931 C0FF EEC6 900D 0CFB 090B 1199 3D9A EBB5"


class TestParseAuthorizations:
    def test_paper_example_verbatim(self):
        alist = parse_authorizations(FIG3)
        assert alist.version == 0
        assert [e.name for e in alist.entries] == ["alice", "bob", "charlie"]
        assert alist.entries[2].fingerprint == Fingerprint.parse(CHARLIE)

    def test_flat_entry_list_parses_identically(self):
        flat = FIG3.replace("((((", "(((").replace(")))))", "))))")
        # structural equivalent without the extra grouping level
        flat = '''(authorizations (version 0)
            (("AD17 A21E F8AE D8F1 CC02 DBD9 F8AE D8F1 765C 61E3" (name "alice"))
             ("2A39 3FFF 68F4 EF7A 3D29 12AF 68F4 EF7A 22FB B2D5" (name "bob"))
             ("CABB A931 C0FF EEC6 900D 0CFB 090B 1199 3D9A EBB5" (name "charlie"))))'''
        assert parse_authorizations(flat) == parse_authorizations(FIG3)

    def test_empty_authorizes_no_one(self):
        alist = parse_authorizations("(authorizations (version 0) ())")
        assert alist.entries == ()
        assert authorized_fingerprints(alist) == frozenset()

    def test_bad_version(self):
        with pytest.raises(BadVersion):
            parse_authorizations('(authorizations (version 1) (("%s")))' % CHARLIE)
        with pytest.raises(BadVersion):
            parse_authorizations('(authorizations (("%s")))' % CHARLIE)

    @pytest.mark.parametrize(
        "fpr", ["CABB", "not hex at all!!", "CABB A931 C0FF EEC6 900D 0CFB 090B 1199 3D9A EBB"]
    )
    def test_bad_fingerprint(self, fpr):
        with pytest.raises(BadFingerprint):
            parse_authorizations(f'(authorizations (version 0) (("{fpr}")))')

    def test_unknown_properties_ignored(self):
        text = (
            '(authorizations (version 0) '
            f'(("{CHARLIE}" (name "c") (files "src/*") (role admin))))'
        )
        alist = parse_authorizations(text)
        assert len(alist.entries) == 1
        assert alist.entries[0].name == "c"

    def test_duplicates_collapsed_despite_spacing_and_case(self):
        text = (
            "(authorizations (version 0) ("
            f'("{CHARLIE}" (name "one"))'
            f'("{CHARLIE.replace(" ", "").lower()}" (name "two"))'
            "))"
        )
        alist = parse_authorizations(text)
        assert len(alist.entries) == 1
        assert len(authorized_fingerprints(alist)) == 1

    def test_not_authorizations_form(self):
        with pytest.raises(SexpSyntaxError):
            parse_authorizations("(something-else (version 0) ())")

    def test_syntax_error_propagates(self):
        with pytest.raises(SexpSyntaxError):
            parse_authorizations("(authorizations (version 0) ((")


fingerprints = st.binary(min_size=20, max_size=20).map(Fingerprint)
names = st.one_of(st.none(), st.text(min_size=1, max_size=10).filter(lambda s: '"' not in s and "\\" not in s))


@given(st.lists(st.builds(AuthorizationEntry, fingerprints, names), max_size=6))
def test_print_parse_round_trip(entries):
    unique = {}
    for e in entries:
        unique.setdefault(e.fingerprint, e)
    alist = AuthorizationList(0, tuple(unique.values()))
    assert parse_authorizations(print_authorizations(alist)) == alist
