"""Object model: hashing, commit/tree parsing, signature stripping."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitvouch.gitstore import (
    MemoryStore,
    ObjectId,
    RawObject,
    hash_object,
    parse_commit,
    parse_tree,
    path_entry,
    serialize_tree,
    signed_payload,
)
from gitvouch.gitstore.objects import CorruptObject, MalformedCommit, NotACommit, TreeEntry

import commit_reference
import fixtures
import tree_reference

# frozen from reference git: `printf ... | git hash-object --stdin`
HELLO_BLOB = "ce013625030ba8dba906f756967f9e9ca394464a"
EMPTY_BLOB = "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"
X_BLOB = "c1b0730e0133447badcfd47fd144e254807b06e1"


class TestObjectId:
    def test_hex_round_trip(self):
        oid = ObjectId.from_hex(HELLO_BLOB)
        assert oid.hex == HELLO_BLOB
        assert len(oid.raw) == 20

    @pytest.mark.parametrize("bad", ["", "ab", "g" * 40, HELLO_BLOB + "00", HELLO_BLOB[:-1]])
    def test_rejects_bad_hex(self, bad):
        with pytest.raises(ValueError):
            ObjectId.from_hex(bad)

    def test_rejects_wrong_length_bytes(self):
        with pytest.raises(ValueError):
            ObjectId(b"\x00" * 19)


class TestHashObject:
    def test_matches_reference_git(self):
        assert hash_object("blob", b"hello\n").hex == HELLO_BLOB
        assert hash_object("blob", b"").hex == EMPTY_BLOB
        assert hash_object("blob", b"x").hex == X_BLOB

    def test_deterministic(self):
        assert hash_object("blob", b"same") == hash_object("blob", b"same")

    @given(st.binary(max_size=512))
    def test_round_trip_through_store(self, payload):
        store = MemoryStore()
        oid = store.add_blob(payload)
        obj = store.read_object(oid)
        assert hash_object(obj.kind, obj.payload) == oid


def make_commit_payload(parents=0, signature=None, message=b"msg\n", extra=()):
    lines = [b"tree " + b"11" * 20]
    lines += [b"parent " + bytes([0x30 + i]) * 40 for i in range(parents)]
    lines.append(b"author A <a@x> 0 +0000")
    lines.append(b"committer A <a@x> 0 +0000")
    lines += extra
    if signature is not None:
        lines.append(b"gpgsig " + signature.replace(b"\n", b"\n "))
    return b"\n".join(lines) + b"\n\n" + message


def fold(name, lines):
    """A header line: value lines after the first become continuation
    lines, each with one leading space."""
    return name + b" " + b"\n ".join(lines)


header_line = st.binary(max_size=12).map(lambda b: b.replace(b"\n", b""))


FAKE_SIG = b"-----BEGIN PGP SIGNATURE-----\n\nabc\ndef\n=gh12\n-----END PGP SIGNATURE-----"


class TestParseCommit:
    def test_minimal_commit(self):
        payload = b"tree " + b"11" * 20 + b"\nauthor A <a@x> 0 +0000\ncommitter A <a@x> 0 +0000\n\nmsg\n"
        commit = parse_commit(RawObject("commit", payload))
        assert commit.parents == ()
        assert commit.signature is None

    def test_merge_commit_has_two_parents_in_order(self):
        payload = make_commit_payload(parents=2)
        commit = parse_commit(RawObject("commit", payload))
        assert len(commit.parents) == 2
        assert commit.parents[0].hex.startswith("00")
        assert commit.parents[1].hex.startswith("11")

    def test_gpgsig_continuation_lines_reassembled(self):
        payload = make_commit_payload(signature=FAKE_SIG)
        commit = parse_commit(RawObject("commit", payload))
        assert commit.signature == FAKE_SIG.decode()

    @pytest.mark.parametrize(
        "payload",
        [
            b"author A <a@x> 0 +0000\ncommitter A <a@x> 0 +0000\n\nmsg\n",  # no tree
            b"tree " + b"11" * 20 + b"\ncommitter A <a@x> 0 +0000\n\nmsg\n",  # no author
            b"tree " + b"11" * 20 + b"\nauthor A <a@x> 0 +0000\n\nmsg\n",  # no committer
            b"tree zz" + b"1" * 38 + b"\nauthor A <a@x> 0 +0000\ncommitter A <a@x> 0 +0000\n\nm\n",
            b"tree " + b"11" * 20 + b"\nauthor A <a@x> 0 +0000\ncommitter A <a@x> 0 +0000\nmsg",
            b"tree " + b"11" * 20 + b"\nauthor a\ncommitter c\nparent " + b"22" * 20 + b"\n\nm\n",
        ],
    )
    def test_malformed(self, payload):
        with pytest.raises(MalformedCommit):
            parse_commit(RawObject("commit", payload))

    def test_not_a_commit(self):
        with pytest.raises(NotACommit):
            parse_commit(RawObject("blob", b"hello\n"))


def _hex_id(data: st.DataObject) -> bytes:
    return data.draw(st.binary(min_size=20, max_size=20)).hex().encode()


class TestCommitGrammar:
    """``parse_commit`` reads the header block with one grammar;
    ``commit_reference`` holds the header loop it replaced. They must
    refuse the same payloads and read the others alike."""

    @given(
        st.integers(min_value=0, max_value=3),
        st.lists(st.sampled_from([b"encoding", b"mergetag", b"gpgsig", b"gpgsig-sha256"]),
                 max_size=4),
        st.booleans(),
        st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(b"\n 0aAgt-\xff")),
                 max_size=2),
        st.data(),
    )
    @settings(max_examples=400)
    def test_parses_as_the_reference_loop(self, parents, extras, shuffle, mutations, data):
        headers = [b"tree " + _hex_id(data)]
        headers += [b"parent " + _hex_id(data) for _ in range(parents)]
        headers += [fold(b"author", data.draw(st.lists(header_line, min_size=1, max_size=3))),
                    fold(b"committer", data.draw(st.lists(header_line, min_size=1, max_size=3)))]
        for name in extras:
            if name == b"encoding":
                headers.append(b"encoding ISO-8859-1")
            elif name == b"mergetag":
                headers.append(fold(name, [b"object " + _hex_id(data), b"type commit",
                                           b"tag v1", b"", b"message", *FAKE_SIG.split(b"\n")]))
            else:
                headers.append(fold(name, data.draw(st.lists(header_line, min_size=1))))
        if shuffle:
            headers = data.draw(st.permutations(headers))
        if data.draw(st.booleans()):
            # One header repeated, or continued by one more line.
            at = data.draw(st.integers(0, len(headers) - 1))
            if data.draw(st.booleans()):
                headers.insert(at, headers[at])
            else:
                headers[at] += b"\n " + data.draw(header_line)
        payload = b"".join(h + b"\n" for h in headers) + b"\n" + data.draw(st.binary(max_size=16))
        for at, byte in mutations:
            at %= len(payload)
            payload = payload[:at] + bytes([byte]) + payload[at + 1:]

        try:
            expected = commit_reference._parse_headers(payload)
        except MalformedCommit:
            with pytest.raises(MalformedCommit):
                parse_commit(RawObject("commit", payload))
            return
        commit = parse_commit(RawObject("commit", payload))
        assert (commit.tree, commit.parents, commit.gpgsig_span) == expected

    TREE = b"tree " + b"11" * 20 + b"\n"

    # A grammar that backtracks over what it has read would take
    # quadratic or exponential time on each of these.
    @pytest.mark.parametrize("payload, parses", [
        (TREE + b"author a\n" + b" x\n" * 200_000 + b"committer c\n\nm", True),
        (TREE + b"author a\n" + b" x\n" * 200_000 + b"committer c\n", False),
        (TREE + b"author " + b"a" * (4 << 20), False),
        (TREE + b"author a\ncommitter c\n" + b"x y\n" * 100_000, False),
    ], ids=["200k continuation lines", "200k continuation lines, no end",
            "4 MiB line without newline", "100k headers without an empty line"])
    def test_pathological_headers_finish(self, payload, parses):
        started = time.monotonic()
        try:
            parse_commit(RawObject("commit", payload))
            parsed = True
        except MalformedCommit:
            parsed = False
        assert parsed == parses
        assert time.monotonic() - started < 5.0


class TestSignedPayload:
    def test_unsigned_commit_identity(self):
        payload = make_commit_payload()
        commit = parse_commit(RawObject("commit", payload))
        assert signed_payload(commit) == payload

    def test_strips_exactly_the_gpgsig_block(self):
        unsigned = make_commit_payload()
        signed = make_commit_payload(signature=FAKE_SIG)
        commit = parse_commit(RawObject("commit", signed))
        stripped = signed_payload(commit)
        assert stripped == unsigned
        assert b"gpgsig" not in stripped
        gpgsig_block = len(signed) - len(unsigned)
        assert len(commit.raw_payload) - len(stripped) == gpgsig_block

    def test_idempotent(self):
        signed = make_commit_payload(signature=FAKE_SIG)
        commit = parse_commit(RawObject("commit", signed))
        once = signed_payload(commit)
        again = signed_payload(parse_commit(RawObject("commit", once)))
        assert once == again

    def test_memstore_presign_oracle(self):
        alice = fixtures.key("alice")
        store = MemoryStore()
        cid = store.commit_files(
            {"f": b"data"}, message="signed\n", sign_with=fixtures.signer(alice)
        )
        commit = store.commit(cid)
        assert commit.signature is not None
        assert signed_payload(commit) == store.presign_payloads[cid]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([b"mergetag", b"encoding", b"x-extra"]),
                st.lists(header_line, min_size=1, max_size=4),
            ),
            max_size=4,
        ),
        st.lists(header_line, min_size=1, max_size=6),
        st.integers(min_value=0),
        st.one_of(st.just(b"gpgsig fake\n continued\n\n"), st.binary(max_size=64)),
    )
    def test_gpgsig_at_any_position_after_committer(self, extras, sig_lines, at, message):
        """Lines may be empty or start with a space, and the message may
        look like headers: only the ``gpgsig`` header is cut out."""
        headers = [fold(name, lines) for name, lines in extras]
        at %= len(headers) + 1
        sig = fold(b"gpgsig", sig_lines)
        unsigned = make_commit_payload(parents=1, extra=headers, message=message)
        signed = make_commit_payload(
            parents=1, extra=headers[:at] + [sig] + headers[at:], message=message
        )
        commit = parse_commit(RawObject("commit", signed))
        assert signed_payload(commit) == unsigned
        assert commit.signature == b"\n".join(sig_lines).decode("utf-8", "replace")
        assert commit.id == hash_object("commit", signed)


class TestTree:
    def test_round_trip(self):
        entries = [
            TreeEntry("100644", "b.txt", ObjectId.from_hex(HELLO_BLOB)),
            TreeEntry("40000", "dir", ObjectId.from_hex(EMPTY_BLOB)),
            TreeEntry("100644", "a.txt", ObjectId.from_hex(X_BLOB)),
        ]
        payload = serialize_tree(entries)
        parsed = parse_tree(payload)
        assert {e.name for e in parsed} == {"a.txt", "b.txt", "dir"}
        assert serialize_tree(parsed) == payload

    def test_git_sorts_directories_with_trailing_slash(self):
        # "dir-x" < "dir/" < "dir0" in git's ordering when dir is a tree
        entries = [
            TreeEntry("100644", "dir-x", ObjectId.from_hex(HELLO_BLOB)),
            TreeEntry("40000", "dir", ObjectId.from_hex(EMPTY_BLOB)),
            TreeEntry("100644", "dir0", ObjectId.from_hex(X_BLOB)),
        ]
        names = [e.name for e in parse_tree(serialize_tree(entries))]
        assert names == ["dir-x", "dir", "dir0"]

    def test_duplicate_names_rejected(self):
        entries = [
            TreeEntry("100644", "a", ObjectId.from_hex(HELLO_BLOB)),
            TreeEntry("100644", "a", ObjectId.from_hex(X_BLOB)),
        ]
        with pytest.raises(CorruptObject):
            parse_tree(serialize_tree(entries))

    def test_non_ascii_mode_rejected(self):
        payload = serialize_tree([TreeEntry("100644", "a", ObjectId.from_hex(HELLO_BLOB))])
        with pytest.raises(CorruptObject, match="non-ASCII mode"):
            parse_tree(b"1\xff0644" + payload[len(b"100644"):])


class _OneTree:
    """A store that holds one tree, whatever id it is asked for."""

    def __init__(self, payload: bytes) -> None:
        self.payload = payload

    def read_object(self, oid):
        return RawObject("tree", self.payload)


TREE_NAMES = [b"a", b"b", b"a b", b"", b".guix-authorizations", b"\xff", b"dir"]


class TestTreeGrammar:
    """``parse_tree`` and ``path_entry`` read a tree with one grammar;
    ``tree_reference`` holds the loop it replaced. They must refuse the
    same payloads with the same error and read the others alike."""

    @given(
        st.lists(st.tuples(st.sampled_from([b"100644", b"40000", b"", b"1\xff0644"]),
                           st.sampled_from(TREE_NAMES),
                           st.binary(min_size=20, max_size=20)), max_size=6),
        st.lists(st.tuples(st.sampled_from(["set", "insert", "delete", "cut"]),
                           st.integers(0, 255), st.sampled_from(b" \x00a4\xff")),
                 max_size=3),
        st.sampled_from(TREE_NAMES + [b"missing"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_reads_as_the_reference_loop(self, entries, edits, wanted):
        data = bytearray(b"".join(m + b" " + n + b"\x00" + raw for m, n, raw in entries))
        for op, pos, byte in edits:
            pos %= len(data) + 1
            if op == "set" and pos < len(data):
                data[pos] = byte
            elif op == "insert":
                data.insert(pos, byte)
            elif op == "delete":
                del data[pos:pos + 1]
            elif op == "cut":
                del data[pos:]
        payload = bytes(data)
        name = wanted.decode("utf-8", "surrogateescape")
        try:
            expected = tree_reference.parse_tree(payload)
        except CorruptObject as exc:
            readers = [lambda: parse_tree(payload)]
            if name:  # an empty path reads no tree
                readers.append(lambda: path_entry(_OneTree(payload), ObjectId(b"\0" * 20), name))
            for read in readers:
                with pytest.raises(CorruptObject) as raised:
                    read()
                assert str(raised.value) == str(exc)
            return
        assert [(e.mode, e.name, e.id.raw) for e in parse_tree(payload)] == expected
        found = {n: (m, raw) for m, n, raw in expected}.get(name)
        wanted_id = None if found is None or found[0] == "40000" else ObjectId(found[1])
        if name:
            assert path_entry(_OneTree(payload), ObjectId(b"\0" * 20), name) == wanted_id

    @staticmethod
    def entries(n: int) -> bytes:
        return b"".join(b"100644 f%06d\x00" % i + b"\x01" * 20 for i in range(n))

    # A grammar that backtracks over what it has read would take
    # quadratic or exponential time on each of these.
    @pytest.mark.parametrize("make, error", [
        (lambda t: t.entries(100_000), None),
        (lambda t: t.entries(100_000)[:-1], "truncated tree entry at offset"),
        (lambda t: t.entries(100_000) + t.entries(1), "duplicate tree entry"),
        (lambda t: b"1" * (4 << 20), "truncated tree entry at offset 0"),
        (lambda t: b"100644 " + b"a" * (4 << 20), "truncated tree entry at offset 0"),
    ], ids=["100k entries", "100k entries, the last cut short", "100k entries, one twice",
            "4 MiB mode", "4 MiB name without NUL"])
    def test_pathological_trees_finish(self, make, error):
        payload = make(self)
        started = time.monotonic()
        if error is None:
            assert len(parse_tree(payload)) == 100_000
        else:
            with pytest.raises(CorruptObject, match=error):
                parse_tree(payload)
        assert time.monotonic() - started < 5.0
