"""S-expression reader/printer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gitvouch.authz import parse_authorizations
from gitvouch.sexp import (
    MAX_NESTING,
    Atom,
    SexpSyntaxError,
    parse_all,
    parse_sexp,
    print_sexp,
)

import sexp_reference


class TestParse:
    def test_nested_list_with_string(self):
        assert parse_sexp('(a (b "c"))') == [Atom("a"), [Atom("b"), Atom("c", quoted=True)]]

    def test_comments_ignored(self):
        assert parse_sexp("(a ;comment\n b)") == [Atom("a"), Atom("b")]

    def test_string_escapes(self):
        assert parse_sexp(r'"a\"b\\c"') == Atom('a"b\\c', quoted=True)

    def test_quote_shorthand(self):
        assert parse_sexp("(name 'chan)") == [Atom("name"), [Atom("quote"), Atom("chan")]]

    @pytest.mark.parametrize("bad", ["(unclosed", '"unterminated', "())", ")", ""])
    def test_syntax_errors(self, bad):
        with pytest.raises(SexpSyntaxError):
            parse_sexp(bad)

    def test_error_carries_offset(self):
        with pytest.raises(SexpSyntaxError) as exc:
            parse_sexp('(a "unterminated')
        assert exc.value.offset == 3

    def test_bom_rejected(self):
        with pytest.raises(SexpSyntaxError):
            parse_sexp(b"\xef\xbb\xbf(a)")

    def test_nesting_at_bound_parses(self):
        assert parse_sexp("(" * MAX_NESTING + ")" * MAX_NESTING) is not None
        assert parse_sexp("'" * (MAX_NESTING - 1) + "(a)") is not None

    @pytest.mark.parametrize("text", [
        "(" * (MAX_NESTING + 1) + ")" * (MAX_NESTING + 1),
        "'" * (MAX_NESTING + 1) + "a",
    ])
    def test_nesting_past_bound_rejected(self, text):
        with pytest.raises(SexpSyntaxError, match="nesting deeper"):
            parse_sexp(text)

    def test_hostile_policy_nesting_is_a_syntax_error(self):
        with pytest.raises(SexpSyntaxError):
            parse_authorizations(b"(" * 100000)

    def test_bad_utf8_rejected(self):
        with pytest.raises(SexpSyntaxError):
            parse_sexp(b"(\xff\xfe)")

    def test_parse_all_multiple_forms(self):
        forms = parse_all("(a) (b)\n(c)")
        assert forms == [[Atom("a")], [Atom("b")], [Atom("c")]]
        assert parse_all("") == []
        assert parse_all("  ; only a comment\n") == []

    def test_trailing_closer_tolerance_is_opt_in(self):
        with pytest.raises(SexpSyntaxError):
            parse_all("(a))")
        assert parse_all("(a))", allow_trailing_closers=True) == [[Atom("a")]]


atoms = st.one_of(
    st.builds(
        Atom,
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_.:"
            ),
            min_size=1,
            max_size=12,
        ),
    ),
    st.builds(Atom, st.text(max_size=20), st.just(True)),
)
sexps = st.recursive(atoms, lambda children: st.lists(children, max_size=5), max_leaves=25)


@given(sexps)
def test_print_parse_round_trip(expr):
    assert parse_sexp(print_sexp(expr)) == expr


# Pieces that exercise every branch of the reader: the grammar's special
# bytes, atom and string bodies, valid and invalid UTF-8, a byte-order
# mark, and runs of openers deep enough to meet MAX_NESTING. Whole string
# literals made of the same pieces reach the escape rules more often.
_PIECES = [b"(", b")", b'"', b"\\", b";", b"'", b" ", b"\t", b"\r", b"\n",
           b"a", b"b-1", b"\xc3\xa9", b"\xff", b"\xc3", b"\xef\xbb\xbf",
           b"(" * 60, b"'" * 60]
_piece = st.sampled_from(_PIECES)
_string = st.lists(_piece, max_size=6).map(lambda body: b'"' + b"".join(body) + b'"')
_inputs = st.lists(_piece | _string, max_size=40).map(b"".join)


def _outcome(parse, data, **kwargs):
    try:
        return "value", parse(data, **kwargs)
    except SexpSyntaxError as exc:
        return type(exc), str(exc), exc.offset


@given(_inputs)
def test_reader_matches_byte_at_a_time_reference(data):
    assert _outcome(parse_sexp, data) == _outcome(sexp_reference.parse_sexp, data)
    for trailing in (False, True):
        assert _outcome(parse_all, data, allow_trailing_closers=trailing) == _outcome(
            sexp_reference.parse_all, data, allow_trailing_closers=trailing)
