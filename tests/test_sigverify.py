"""OpenPGP subset: armor, packets, key loading, verification.

Expected values marked "gpg:" were produced by GnuPG 2.2 on the
checked-in fixture files (gpg --list-packets / --dearmor / --list-keys)
and frozen here.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitvouch.sigverify import (
    BadArmor,
    BadChecksum,
    BadSignature,
    Fingerprint,
    KeyPacket,
    Keyring,
    NoKeyFound,
    SignaturePacket,
    Truncated,
    UnknownKey,
    Unsupported,
    UserIdPacket,
    WeakDigest,
    dearmor,
    fingerprint_of,
    load_keys,
    parse_packets,
    verify_detailed,
)

import crc24_reference
import fixtures
import packet_reference
from openpgp_writer import armor, bind_subkey, export_public, packet, sign_for_tests
from gitvouch.errors import VouchError
from gitvouch.sigverify import ed25519
from gitvouch.sigverify.armor import (
    PUBLIC_KEY_BLOCK,
    SIGNATURE,
    crc24,
)
from gitvouch.sigverify.packets import HASH_SHA1, TAG_PUBLIC_KEY, TAG_PUBLIC_SUBKEY

DATA = os.path.join(os.path.dirname(__file__), "data")

# gpg: fingerprints and digests of the fixture files
ALICE_FPR = "53B228BF2E908F8B870FE686F4B0C39018A97E96"
CAROL_PRIMARY = "43903DC8DDB26BCD886F43D1733EFD88A1D79C13"
CAROL_SUBKEY = "9456D465FDC8B083B1BFC69AAC4B1901A7ABFB0D"
RITA_FPR = "74F619AED111665448759C905A809EBA76AFAFE8"
ALICE_DEARMORED_SHA256 = "0f66359759f796111cbbbc16e1b465ef709f1b343c4c563476397469f3d673ea"
CAROL_DEARMORED_SHA256 = "c13c480cc3c19b5de24ba5186c7dddeb97ee08e7d8bb4330ec3c1b1674a5f3d1"
SIG_DEARMORED_SHA256 = "dc69b1cef63bcc3cea785c003c03832a0083c52563a660822c1eb532387d954f"


def read(name: str, binary: bool = False):
    mode = "rb" if binary else "r"
    with open(os.path.join(DATA, name), mode) as fh:
        return fh.read()


def first_signature(armored: str) -> SignaturePacket:
    packets = parse_packets(dearmor(armored, SIGNATURE))
    return next(p for p in packets if isinstance(p, SignaturePacket))


class TestArmor:
    @given(st.binary(max_size=300))
    def test_round_trip(self, data):
        assert dearmor(armor("SIGNATURE", data), SIGNATURE) == data

    def test_matches_gpg_dearmor(self):
        for name, label, digest in [("payload.sig", SIGNATURE, SIG_DEARMORED_SHA256),
                                    ("alice.asc", PUBLIC_KEY_BLOCK, ALICE_DEARMORED_SHA256),
                                    ("carol.asc", PUBLIC_KEY_BLOCK, CAROL_DEARMORED_SHA256)]:
            assert hashlib.sha256(dearmor(read(name), label)).hexdigest() == digest

    def test_corrupted_base64_rejected(self):
        text = armor("SIGNATURE", b"some signature data here")
        lines = text.splitlines()
        lines[2] = lines[2][:-2] + "!]"
        with pytest.raises((BadArmor, BadChecksum)):
            dearmor("\n".join(lines), SIGNATURE)

    def test_flipped_payload_fails_checksum(self):
        text = armor("SIGNATURE", b"some signature data here")
        lines = text.splitlines()
        body = list(lines[2])
        body[0] = "A" if body[0] != "A" else "B"
        lines[2] = "".join(body)
        with pytest.raises((BadArmor, BadChecksum)):
            dearmor("\n".join(lines), SIGNATURE)

    def test_missing_markers(self):
        with pytest.raises(BadArmor):
            dearmor("just some text\n", SIGNATURE)
        with pytest.raises(BadArmor):
            dearmor("-----BEGIN PGP SIGNATURE-----\nYWJj\n", SIGNATURE)

    def test_checksum_optional(self):
        text = armor("SIGNATURE", b"data")
        stripped = "\n".join(l for l in text.splitlines() if not l.startswith("="))
        assert dearmor(stripped, SIGNATURE) == b"data"

    def test_armor_headers_then_one_empty_line(self):
        text = armor("SIGNATURE", b"some signature data here")
        with_headers = text.replace(
            "-----\n\n", "-----\nVersion: GnuPG v2\r\nComment: \x00 anything\n\n", 1)
        assert dearmor(with_headers, SIGNATURE) == b"some signature data here"

    # Shapes the line-by-line reader accepted that the grammar refuses.
    # gpg 2.2.40 --dearmor refuses the two marked ones and accepts the
    # others.
    @pytest.mark.parametrize("old, new", [
        ("-----\n\n", "-----\n"),  # gpg refuses: no empty line after BEGIN
        ("-----\n\n", "-----\nComment hi\n\n"),  # gpg refuses: no ": "
        ("\n\n", "\n\n\n"),  # an empty line in the body
        ("\n=", "\n\n="),  # an empty line before the checksum
        ("-----\n\n", "-----\n \n"),  # a blank line that is not empty
        ("\n\n", "\n\n  "),  # a base64 line with leading blanks
        ("\n=", " \n="),  # a base64 line with trailing blanks
        ("-----\n\n", "-----\nSome Key: x\n\n"),  # a header key with a space
        ("\n-----END", "\nAAAA\n-----END"),  # base64 after the checksum line
        ("\n-----END", "junk\n-----END"),  # a checksum line of more than four
    ])
    def test_shapes_outside_the_grammar_are_bad_armor(self, old, new):
        text = armor("SIGNATURE", b"some signature data here")
        mutated = text.replace(old, new, 1)
        assert mutated != text
        with pytest.raises(BadArmor):
            dearmor(mutated, SIGNATURE)

    # A grammar that backtracks over what it has read would take
    # quadratic time on each of these key files.
    @pytest.mark.parametrize("text", [
        ("-----BEGIN PGP PUBLIC KEY BLOCK-----\n\n" + ("A" * 64 + "\n") * 100_000) * 2,
        "-----BEGIN PGP PUBLIC KEY BLOCK-----\nComment x\n" * 100_000,
        "-----BEGIN PGP PUBLIC KEY BLOCK-----\n" + "Comment: " + "x" * (4 << 20),
    ], ids=["2 x 100k base64 lines without END", "100k BEGIN lines", "4 MiB header line"])
    def test_pathological_key_files_finish(self, text):
        started = time.monotonic()
        with pytest.raises(BadArmor):
            load_keys(text)
        assert time.monotonic() - started < 5.0

    @pytest.mark.parametrize("remainder", [0, 1, 2])
    @given(data=st.binary(max_size=2048))
    def test_crc24_matches_byte_at_a_time_reference(self, remainder, data):
        data = data[: len(data) - (len(data) - remainder) % 3]
        assert len(data) % 3 == remainder or not data
        assert crc24(data) == crc24_reference.crc24(data)

    def test_crc24_known_values(self):
        # RFC 4880 §6.1: the register starts at 0xB704CE.
        assert crc24(b"") == 0xB704CE
        assert crc24(b"123456789") == 0x21CF02

    # Each was accepted before labels were checked and lines split only
    # at LF and CRLF; gpg rejects each.
    @pytest.mark.parametrize("old, new", [
        ("BEGIN PGP SIGNATURE", "BEGIN PGP MESSAGE"),
        ("BEGIN PGP SIGNATURE", "BEGIN PGP SIUNATURE"),
        ("END PGP SIGNATURE", "END PGP SIUNATURE"),
        ("END PGP SIGNATURE", "END PGP PUBLIC KEY BLOCK"),
        ("SIGNATURE-----\n\n", "SIGNATURE-----\f\n"),
    ])
    def test_framing_gpg_rejects_is_bad_armor(self, old, new):
        text = armor("SIGNATURE", b"some signature data here")
        assert dearmor(text, SIGNATURE) == b"some signature data here"
        mutated = text.replace(old, new, 1)
        assert mutated != text
        with pytest.raises(BadArmor):
            dearmor(mutated, SIGNATURE)

    def test_label_must_be_the_one_asked_for(self):
        key_block = armor("PUBLIC KEY BLOCK", b"key")
        assert dearmor(key_block, PUBLIC_KEY_BLOCK) == b"key"
        with pytest.raises(BadArmor, match="is not PGP SIGNATURE"):
            dearmor(key_block, SIGNATURE)
        with pytest.raises(BadArmor, match="is not PGP PUBLIC KEY BLOCK"):
            dearmor(armor("SIGNATURE", b"sig"), PUBLIC_KEY_BLOCK)

    def test_crlf_line_ends_read_as_lf(self):
        text = armor("SIGNATURE", b"some signature data here")
        assert dearmor(text.replace("\n", "\r\n"), SIGNATURE) == b"some signature data here"

    def test_split_blocks(self):
        carol_crlf = read("carol.asc").replace("\n", "\r\n")
        text = read("alice.asc") + "text between blocks\n" + carol_crlf
        fingerprints = [k.fingerprint.hex.upper() for k in load_keys(text)]
        assert fingerprints == [ALICE_FPR, CAROL_PRIMARY, CAROL_SUBKEY]
        # Every BEGIN line must start a whole block of the label asked for.
        for extra in ("-----BEGIN PGP PUBLIC KEY BLOCK-----\n",
                      armor("SIGNATURE", b"sig")):
            with pytest.raises(BadArmor):
                load_keys(text + extra)


def _armor_sources() -> list[tuple[str, str]]:
    return [
        (SIGNATURE, read("payload.sig")),
        (SIGNATURE, read("payload-rsa.sig")),
        (PUBLIC_KEY_BLOCK, read("alice.asc")),
        (PUBLIC_KEY_BLOCK, read("rita.asc")),
    ]


# One edit of an armored block's lines: (kind, line, position, text).
_ARMOR_EDITS = st.tuples(
    # Headers and line ends keep a block readable more often than the
    # other edits, so they are drawn more often.
    st.sampled_from(["replace", "insert", "delete", "drop line", "copy line",
                     "empty line"] + ["header", "line end"] * 3),
    st.integers(0, 1000),
    st.integers(0, 100),
    st.sampled_from(["=", "-", ":", " ", "\t", "\r", "\f", "A", "/", "\x00", "é",
                     "Comment: x", "Version: GnuPG v2", "Hash: SHA256", "Comment:"]),
)


def _edit(lines: list[str], kind: str, at: int, pos: int, text: str) -> None:
    at %= len(lines)
    line = lines[at]
    pos %= len(line) + 1
    if kind == "replace":
        lines[at] = line[:pos] + text + line[pos + 1:]
    elif kind == "insert":
        lines[at] = line[:pos] + text + line[pos:]
    elif kind == "delete":
        lines[at] = line[:pos] + line[pos + 1:]
    elif kind == "drop line":
        del lines[at]
    elif kind == "copy line":
        lines.insert(at, line)
    elif kind == "empty line":
        lines.insert(at, "")
    elif kind == "header":
        lines.insert(1, text)
    else:
        lines[at] = line + ("\r" if text in ("\r", "=") else text)


@pytest.mark.skipif(shutil.which("gpg") is None, reason="gpg required")
class TestArmorAgainstGpg:
    """GnuPG as the oracle for armor: every block that ``dearmor`` accepts
    after edits of its BEGIN and END lines, armor headers, empty line,
    base64, checksum line and line ends, ``gpg --dearmor`` accepts too
    and decodes to the same bytes.

    Two exceptions:

    - A block without a checksum line is not given to gpg. RFC 9580 §6.1
      makes the line optional and ``dearmor`` reads such a block
      (``test_checksum_optional``), but gpg 2.2 then reads the END line
      as base64 and fails with "invalid radix64 character".
    - Text before the BEGIN line is not given to gpg. ``dearmor`` skips
      it, but gpg guesses from the first byte whether its input is
      armored at all, and copies a text starting with "é" through as
      binary.
    """

    @pytest.fixture(scope="class")
    def gpg_home(self, tmp_path_factory):
        home = tmp_path_factory.mktemp("gnupg")
        home.chmod(0o700)
        return str(home)

    @settings(max_examples=600, deadline=None)
    @given(source=st.sampled_from(_armor_sources()), crlf=st.booleans(),
           edits=st.lists(_ARMOR_EDITS, max_size=3))
    def test_what_dearmor_accepts_gpg_decodes_alike(self, gpg_home, source, crlf, edits):
        label, text = source
        lines = text.split("\n")[:-1]
        for edit in edits:
            _edit(lines, *edit)
            if not lines:
                return
        text = "".join(line + ("\r\n" if crlf else "\n") for line in lines)
        try:
            data = dearmor(text, label)
        except VouchError:
            return
        if not re.search(r"^=[A-Za-z0-9+/]{4}\r?\n-----END ", text, re.M):
            return  # no checksum line: the first exception above
        begin = re.search(r"^-----BEGIN PGP [A-Z0-9 ]+-----[ \t]*\r?$", text, re.M)
        gpg = subprocess.run(
            ["gpg", "--homedir", gpg_home, "--batch", "--dearmor"],
            input=text[begin.start():].encode("utf-8"), capture_output=True, timeout=30)
        assert gpg.returncode == 0, gpg.stderr
        assert gpg.stdout == data


class TestParsePackets:
    def test_alice_packet_sequence_matches_gpg(self):
        # gpg: tag 6 plen 51, tag 13 plen 30, tag 2 plen 144
        packets = parse_packets(dearmor(read("alice.asc"), PUBLIC_KEY_BLOCK))
        assert isinstance(packets[0], KeyPacket) and len(packets[0].body) == 51
        assert isinstance(packets[1], UserIdPacket) and len(packets[1].value) == 30
        assert isinstance(packets[2], SignaturePacket)
        assert packets[2].sig_type == 0x13 and packets[2].pubkey_algorithm == 22

    def test_carol_packet_sequence_matches_gpg(self):
        # gpg: tags 6, 13, 2, 14, 2 with plens 51, 30, 144, 51, 239
        packets = parse_packets(dearmor(read("carol.asc"), PUBLIC_KEY_BLOCK))
        kinds = [type(p).__name__ for p in packets]
        assert kinds == ["KeyPacket", "UserIdPacket", "SignaturePacket",
                         "KeyPacket", "SignaturePacket"]
        assert len(packets[0].body) == 51
        assert packets[3].is_subkey and len(packets[3].body) == 51

    def test_empty_input(self):
        assert parse_packets(b"") == []

    def test_truncated_header(self):
        data = dearmor(read("alice.asc"), PUBLIC_KEY_BLOCK)
        with pytest.raises(Truncated):
            parse_packets(data[:40])

    def test_partial_length_unsupported(self):
        # new-format tag 6 with a partial-length octet (0xE0..0xFE)
        with pytest.raises(Unsupported):
            parse_packets(bytes([0xC6, 0xE1]) + b"\x00" * 8)

    @given(
        source=st.sampled_from(["payload.sig", "payload-rsa.sig", "expired.sig", "alice.asc",
                                "carol.asc", "writer", "writer key"]),
        edits=st.lists(
            st.tuples(st.sampled_from(["set", "flip", "insert", "delete", "cut"]),
                      st.one_of(st.integers(0, 8), st.integers(0, 1023)),
                      st.one_of(st.sampled_from([0, 1, 4, 22, 191, 192, 223, 224, 255]),
                                st.integers(0, 255))),
            min_size=1, max_size=4),
    )
    @settings(max_examples=500, deadline=None)
    def test_reads_as_the_reference(self, source, edits):
        # ``packet_reference`` holds the framing and the signature reader
        # this one replaced: mutated packets read alike or fail alike.
        # The fixture files use the old packet format, the writer the new.
        if source == "writer":
            data = bytearray(dearmor(sign_for_tests(b"payload\n", fixtures.key("alice")),
                                     SIGNATURE))
        elif source == "writer key":
            data = bytearray(dearmor(export_public(fixtures.key("alice")), PUBLIC_KEY_BLOCK))
        else:
            label = SIGNATURE if source.endswith(".sig") else PUBLIC_KEY_BLOCK
            data = bytearray(dearmor(read(source), label))
        for op, pos, byte in edits:
            pos %= len(data) + 1
            if op == "set" and pos < len(data):
                data[pos] = byte
            elif op == "flip" and pos < len(data):
                data[pos] ^= byte or 1
            elif op == "insert":
                data.insert(pos, byte)
            elif op == "delete":
                del data[pos:pos + 1 + byte % 4]
            elif op == "cut":
                del data[pos:]
        self.assert_reads_as_the_reference(bytes(data))

    @pytest.mark.parametrize("source", ["alice.asc", "writer key"])
    def test_every_first_length_octet_reads_as_the_reference(self, source):
        if source == "writer key":
            data = bytearray(dearmor(export_public(fixtures.key("alice")), PUBLIC_KEY_BLOCK))
        else:
            data = bytearray(dearmor(read(source), PUBLIC_KEY_BLOCK))
        for octet in range(256):
            data[1] = octet
            self.assert_reads_as_the_reference(bytes(data))

    @staticmethod
    def assert_reads_as_the_reference(data: bytes) -> None:
        try:
            expected = packet_reference.parse_packets(data)
        except VouchError as exc:
            with pytest.raises(VouchError) as raised:
                parse_packets(data)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            return

        def fields(p):
            if isinstance(p, SignaturePacket):
                return tuple(p)
            if isinstance(p, KeyPacket):
                return ("key", p)
            return (13, p.value) if isinstance(p, UserIdPacket) else (p.tag, p.body)

        assert [fields(p) for p in parse_packets(data)] == expected

    def test_v3_key_unsupported(self):
        body = b"\x03" + (1600000000).to_bytes(4, "big") + b"\x00\x00\x01" + b"\x00" * 10
        packet = bytes([0xC6, len(body)]) + body
        with pytest.raises(Unsupported):
            parse_packets(packet)


class TestFingerprint:
    def test_matches_gpg(self):
        packets = parse_packets(dearmor(read("alice.asc"), PUBLIC_KEY_BLOCK))
        assert fingerprint_of(packets[0].body).hex.upper() == ALICE_FPR

    def test_deterministic(self):
        packets = parse_packets(dearmor(read("alice.asc"), PUBLIC_KEY_BLOCK))
        assert fingerprint_of(packets[0].body) == fingerprint_of(packets[0].body)

    def test_v3_rejected(self):
        with pytest.raises(Unsupported):
            fingerprint_of(b"\x03" + b"\x00" * 20)

    def test_text_forms(self):
        spaced = "CABB A931 C0FF EEC6 900D 0CFB 090B 1199 3D9A EBB5"
        assert Fingerprint.parse(spaced) == Fingerprint.parse(spaced.replace(" ", "").lower())
        assert Fingerprint.parse(spaced).display() == spaced

    @pytest.mark.parametrize("bad", ["", "CABB", "X" * 40])
    def test_bad_text(self, bad):
        with pytest.raises(ValueError):
            Fingerprint.parse(bad)


class TestLoadKeys:
    def test_single_ed25519_key(self):
        keys = load_keys(read("alice.asc"))
        assert len(keys) == 1
        assert keys[0].algorithm == "ed25519"
        assert keys[0].fingerprint.hex.upper() == ALICE_FPR
        assert not keys[0].is_subkey

    def test_key_with_signing_subkey(self):
        keys = load_keys(read("carol.asc"))
        assert len(keys) == 2
        primary, subkey = keys
        assert primary.fingerprint.hex.upper() == CAROL_PRIMARY
        assert subkey.fingerprint.hex.upper() == CAROL_SUBKEY
        assert subkey.is_subkey
        assert subkey.primary_fingerprint == primary.fingerprint

    def test_rsa_key(self):
        keys = load_keys(read("rita.asc"))
        assert keys[0].algorithm == "rsa"
        assert keys[0].fingerprint.hex.upper() == RITA_FPR

    def test_binary_input(self):
        keys = load_keys(dearmor(read("alice.asc"), PUBLIC_KEY_BLOCK))
        assert keys[0].fingerprint.hex.upper() == ALICE_FPR

    def test_key_file_with_leading_text(self):
        # Bytes that do not start with a packet tag are text: anything
        # before the BEGIN line is ignored, as in a str.
        text = "pub key of alice\n" + read("alice.asc")
        for data in (text, text.encode()):
            assert [k.fingerprint.hex.upper() for k in load_keys(data)] == [ALICE_FPR]
        with pytest.raises(NoKeyFound):
            load_keys(b"no key in here\n")
        with pytest.raises(NoKeyFound):
            load_keys(b"")

    def test_user_id_only_is_no_key(self):
        uid_packet = bytes([0xC0 | 13, 4]) + b"a@b "
        with pytest.raises(NoKeyFound):
            load_keys(uid_packet)

    def test_keyring_keyid_collisions_preserved(self):
        keys = load_keys(read("alice.asc")) + load_keys(read("carol.asc"))
        ring = Keyring(keys)
        assert len(ring) == 3
        alice = keys[0]
        assert ring.candidates_for_key_id(alice.fingerprint.key_id) == [alice]


    @given(
        name=st.sampled_from(["alice.asc", "carol.asc", "rita.asc"]),
        armored=st.booleans(),
        edits=st.lists(
            st.tuples(st.sampled_from(["flip", "insert", "delete", "cut"]),
                      st.integers(0, 4095), st.integers(0, 255)),
            min_size=1, max_size=6),
    )
    @settings(max_examples=400, deadline=None)
    def test_mutated_keys_load_or_fail_closed(self, name, armored, edits):
        # Hostile keyring files: armored or binary, with bytes flipped,
        # inserted, deleted or cut off, must give keys or a VouchError.
        data = bytearray(read(name).encode() if armored else dearmor(read(name), PUBLIC_KEY_BLOCK))
        for op, pos, byte in edits:
            pos %= len(data) + 1
            if op == "flip" and pos < len(data):
                data[pos] ^= byte or 1
            elif op == "insert":
                data.insert(pos, byte)
            elif op == "delete":
                del data[pos:pos + 1 + byte % 4]
            elif op == "cut":
                del data[pos:]
        try:
            keys = load_keys(bytes(data))
        except VouchError:
            return
        assert keys and all(k.fingerprint for k in keys)


class TestVerify:
    def test_gpg_ed25519_signature(self):
        ring = Keyring(load_keys(read("alice.asc")))
        sig = first_signature(read("payload.sig"))
        assert sig.hash_algorithm == 8  # gpg: digest algo 8 (SHA-256)
        fpr = verify_detailed(sig, read("payload.bin", binary=True), ring).primary_fingerprint
        assert fpr.hex.upper() == ALICE_FPR

    def test_gpg_rsa_sha512_signature(self):
        ring = Keyring(load_keys(read("rita.asc")))
        sig = first_signature(read("payload-rsa.sig"))
        assert sig.hash_algorithm == 10  # gpg: digest algo 10 (SHA-512)
        fpr = verify_detailed(sig, read("payload.bin", binary=True), ring).primary_fingerprint
        assert fpr.hex.upper() == RITA_FPR

    def test_flipped_payload_byte(self):
        ring = Keyring(load_keys(read("alice.asc")))
        sig = first_signature(read("payload.sig"))
        payload = bytearray(read("payload.bin", binary=True))
        payload[0] ^= 0x01
        with pytest.raises(BadSignature):
            verify_detailed(sig, bytes(payload), ring)

    def test_unknown_key(self):
        ring = Keyring(load_keys(read("carol.asc")))
        sig = first_signature(read("payload.sig"))
        with pytest.raises(UnknownKey):
            verify_detailed(sig, read("payload.bin", binary=True), ring)

    def test_round_trip_with_test_signer(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(b"payload\n", key))
        assert verify_detailed(sig, b"payload\n", ring).primary_fingerprint == key.fingerprint

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_random_payloads(self, payload):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(payload, key))
        assert verify_detailed(sig, payload, ring).primary_fingerprint == key.fingerprint

    def test_sha512_signature(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(b"data\n", key, hash_algorithm="sha512"))
        assert sig.hash_algorithm == 10
        assert verify_detailed(sig, b"data\n", ring).primary_fingerprint == key.fingerprint

    def test_text_mode_crlf_canonicalization(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(b"line one\nline two\n", key, text_mode=True))
        assert sig.sig_type == 0x01
        for payload in (b"line one\r\nline two\r\n", b"line one\nline two\n"):
            assert verify_detailed(sig, payload, ring).primary_fingerprint == key.fingerprint

    def test_constructed_rsa_round_trip(self):
        rita = fixtures.RsaTestKey()
        ring = Keyring(load_keys(rita.export_binary()))
        sig = first_signature(rita.sign(b"rsa payload\n"))
        assert verify_detailed(sig, b"rsa payload\n", ring).primary_fingerprint == rita.fingerprint
        sig512 = first_signature(rita.sign(b"rsa payload\n", hash_name="sha512"))
        result = verify_detailed(sig512, b"rsa payload\n", ring)
        assert result.primary_fingerprint == rita.fingerprint

    def test_wrong_keyring_for_rsa(self):
        rita = fixtures.RsaTestKey()
        other = fixtures.RsaTestKey()
        ring = Keyring(load_keys(other.export_binary()))
        sig = first_signature(rita.sign(b"rsa payload\n"))
        with pytest.raises(UnknownKey):
            verify_detailed(sig, b"rsa payload\n", ring)


class TestAlgorithmMismatch:
    """A signature naming a key of another algorithm is a bad signature,
    not a crash: each check reads the material its own algorithm
    parses."""

    def test_rsa_signature_naming_ed25519_key(self):
        alice = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(alice)))
        forged = fixtures.claim_algorithm(sign_for_tests(b"payload\n", alice), 1, b"payload\n")
        sig = first_signature(forged)
        assert sig.pubkey_algorithm == 1
        assert sig.issuer_fingerprint == alice.fingerprint
        with pytest.raises(BadSignature, match="names ed25519 key"):
            verify_detailed(sig, b"payload\n", ring)

    def test_eddsa_signature_naming_rsa_key(self):
        rita = fixtures.RsaTestKey()
        ring = Keyring(load_keys(rita.export_binary()))
        forged = fixtures.claim_algorithm(rita.sign(b"payload\n"), 22, b"payload\n")
        sig = first_signature(forged)
        assert sig.pubkey_algorithm == 22
        assert sig.issuer_fingerprint == rita.fingerprint
        with pytest.raises(BadSignature, match="names rsa key"):
            verify_detailed(sig, b"payload\n", ring)

    def test_oversized_rsa_signature_is_bad_not_a_crash(self):
        rita = fixtures.RsaTestKey()
        ring = Keyring(load_keys(rita.export_binary()))
        sig = first_signature(rita.sign(b"payload\n"))
        with pytest.raises(BadSignature):
            verify_detailed(sig._replace(material=1 << 4096), b"payload\n", ring)


class TestWeakDigestPolicy:
    def test_sha1_rejected(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(b"data\n", key, hash_algorithm="sha1"))
        with pytest.raises(WeakDigest):
            verify_detailed(sig, b"data\n", ring)

    def test_rejected_before_any_verification(self):
        # issuer is not even in the keyring: WeakDigest must still win,
        # proving the policy check comes first
        key = fixtures.key("zed")
        ring = Keyring(load_keys(export_public(fixtures.key("alice"))))
        sig = first_signature(sign_for_tests(b"data\n", key, hash_algorithm="sha1"))
        with pytest.raises(WeakDigest):
            verify_detailed(sig, b"data\n", ring)

    def test_sha256_equivalent_passes(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(b"data\n", key, hash_algorithm="sha256"))
        assert verify_detailed(sig, b"data\n", ring).primary_fingerprint == key.fingerprint


class TestIssuerResolution:
    def test_key_id_fallback_when_no_fingerprint_subpacket(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(
            sign_for_tests(b"payload\n", key, issuer_fingerprint=False)
        )
        assert sig.issuer_fingerprint is None
        assert sig.issuer_key_id == key.fingerprint.key_id
        assert verify_detailed(sig, b"payload\n", ring).primary_fingerprint == key.fingerprint

    def test_key_id_collisions_try_every_candidate(self, monkeypatch):
        # force a universal key-id collision, then check that lookup by
        # key id walks the candidate list to the real signer
        monkeypatch.setattr(
            Fingerprint, "key_id", property(lambda self: b"\x42" * 8)
        )
        decoy, signer_key = fixtures.key("alice"), fixtures.key("bob")
        ring = Keyring(load_keys(export_public(decoy)) + load_keys(export_public(signer_key)))
        assert len(ring.candidates_for_key_id(b"\x42" * 8)) == 2
        sig = first_signature(
            sign_for_tests(b"payload\n", signer_key, issuer_fingerprint=False)
        )
        result = verify_detailed(sig, b"payload\n", ring)
        assert result.primary_fingerprint == signer_key.fingerprint

    def test_no_issuer_information_at_all_is_unknown(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(
            sign_for_tests(b"payload\n", key, issuer_fingerprint=False)
        )
        # strip the unhashed area (where the key id lives)
        stripped = sig._replace(unhashed_subpackets=())
        with pytest.raises(UnknownKey):
            verify_detailed(stripped, b"payload\n", ring)


class TestSubkeySignature:
    def test_signature_reports_primary_fingerprint(self):
        # build a signature issued by carol's signing subkey, using gpg
        # fixture key material is public only, so fabricate: sign with a
        # fixture key bound as subkey of another primary
        primary = fixtures.key("carol")
        sub = fixtures.key("carol-sub")
        keys = load_keys(export_public(primary)) + load_keys(export_public(sub))
        # rebind: pretend sub is a subkey of primary
        rebound = keys[1]._replace(primary_fingerprint=primary.fingerprint)
        ring = Keyring([keys[0], rebound])
        sig = first_signature(sign_for_tests(b"payload\n", sub))
        result = verify_detailed(sig, b"payload\n", ring)
        assert result.key_fingerprint == sub.fingerprint
        assert result.primary_fingerprint == primary.fingerprint
        assert verify_detailed(sig, b"payload\n", ring).primary_fingerprint == primary.fingerprint


class TestSubkeyBinding:
    """A subkey counts only when a binding signature by its primary
    follows it (RFC 9580 §5.2.4)."""

    PAYLOAD = b"payload\n"

    def setup_method(self):
        self.primary = fixtures.key("carol")
        self.sub = fixtures.key("carol-sub")
        self.sig = first_signature(sign_for_tests(self.PAYLOAD, self.sub))

    def test_bound_subkey_verifies_and_reports_its_primary(self):
        keys = load_keys(export_public(self.primary, subkeys=(self.sub,)))
        assert [k.fingerprint for k in keys] == [self.primary.fingerprint, self.sub.fingerprint]
        assert keys[1].primary_fingerprint == self.primary.fingerprint
        result = verify_detailed(self.sig, self.PAYLOAD, Keyring(keys))
        assert result.key_fingerprint == self.sub.fingerprint
        assert result.primary_fingerprint == self.primary.fingerprint

    def test_rsa_primary_binds_an_ed25519_subkey(self):
        rita = fixtures.RsaTestKey(bits=1024)
        binary = rita.export_binary() + bind_subkey(rita, self.sub)
        keys = load_keys(binary)
        assert [k.primary_fingerprint for k in keys] == [rita.fingerprint] * 2
        result = verify_detailed(self.sig, self.PAYLOAD, Keyring(keys))
        assert result.primary_fingerprint == rita.fingerprint

    @pytest.mark.parametrize("case", [
        "no signature", "signed by another key", "certification type",
        "sha1", "binds another subkey", "damaged signature",
    ])
    def test_unbound_subkey_is_skipped(self, case, caplog):
        other = fixtures.key("mallory")
        subkey = packet(TAG_PUBLIC_SUBKEY, self.sub.key_packet_body)
        bound = bind_subkey(self.primary, self.sub)
        tail = {
            "no signature": subkey,
            # mallory's binding, placed under carol's primary
            "signed by another key": bind_subkey(other, self.sub),
            "certification type": bind_subkey(self.primary, self.sub, sig_type=0x13),
            "sha1": bind_subkey(self.primary, self.sub, hash_id=HASH_SHA1),
            "binds another subkey": (
                subkey + bind_subkey(self.primary, other)[len(subkey):]),
            "damaged signature": bound[:-3] + bytes([bound[-3] ^ 1]) + bound[-2:],
        }[case]
        with caplog.at_level("WARNING"):
            keys = load_keys(packet(TAG_PUBLIC_KEY, self.primary.key_packet_body) + tail)
        assert [k.fingerprint for k in keys] == [self.primary.fingerprint]
        assert "no valid binding signature" in caplog.text
        with pytest.raises(UnknownKey):
            verify_detailed(self.sig, self.PAYLOAD, Keyring(keys))

    def test_a_binding_signature_does_not_verify_a_commit(self):
        # A type 0x18 signature is not a signature over a document.
        bound = bind_subkey(self.primary, self.sub)
        binding = [p for p in parse_packets(bound) if isinstance(p, SignaturePacket)][0]
        ring = Keyring(load_keys(export_public(self.primary)))
        with pytest.raises(Unsupported):
            verify_detailed(binding, self.PAYLOAD, ring)


class TestIgnoredOpenPGPFeatures:
    """Expiration and revocation deliberately carry no weight: commit
    causality is what matters, and those timestamps are forgeable."""

    # gpg: key 6117AFB1... expired 2020-01-02; key A559D755... revoked
    EXPIRED_FPR = "6117AFB137808DB93BF4749C55C61E17B7BA6A56"
    REVOKED_FPR = "A559D7555412D23772B14B340B773D03A35E5557"

    def test_expired_key_still_verifies(self):
        keys = load_keys(read("expired.asc"))
        assert keys[0].fingerprint.hex.upper() == self.EXPIRED_FPR
        ring = Keyring(keys)
        sig = first_signature(read("expired.sig"))
        fpr = verify_detailed(sig, read("payload.bin", binary=True), ring).primary_fingerprint
        assert fpr.hex.upper() == self.EXPIRED_FPR

    def test_revoked_key_still_verifies(self):
        # the export carries the revocation signature packet; loading
        # must skip it and verification must not care
        keys = load_keys(read("revoked.asc"))
        assert keys[0].fingerprint.hex.upper() == self.REVOKED_FPR
        ring = Keyring(keys)
        sig = first_signature(read("revoked.sig"))
        fpr = verify_detailed(sig, read("payload.bin", binary=True), ring).primary_fingerprint
        assert fpr.hex.upper() == self.REVOKED_FPR

    def test_signature_creation_time_parsed_but_unused(self):
        sig = first_signature(read("expired.sig"))
        assert sig.creation_time is not None  # parsed
        # far in the "expired" past, yet verification succeeded above


class TestMutationDetection:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_single_bit_flips_never_misattribute(self, data):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        payload = b"a short payload for mutation testing\n"
        armored = sign_for_tests(payload, key)
        binary = bytearray(dearmor(armored, SIGNATURE))
        bit = data.draw(st.integers(min_value=0, max_value=len(binary) * 8 - 1))
        binary[bit // 8] ^= 1 << (bit % 8)
        from gitvouch.errors import VouchError

        try:
            sig = next(
                p for p in parse_packets(bytes(binary)) if isinstance(p, SignaturePacket)
            )
            fpr = verify_detailed(sig, payload, ring).primary_fingerprint
            # the only acceptable "success" is the genuine signer
            assert fpr == key.fingerprint
        except (VouchError, StopIteration):
            pass


class TestEd25519VerifyKeyword:
    """``ed25519_verify`` decides an Ed25519 check in place of the
    engine, given the key, the signature and the digest; RSA never
    reaches it."""

    PAYLOAD = b"payload\n"

    def test_receives_the_check_and_decides_it(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(self.PAYLOAD, key))
        r, s = sig.material
        forged = sig._replace(material=(r, s ^ 1))
        raw = r.to_bytes(32, "big") + (s ^ 1).to_bytes(32, "big")
        digest = hashlib.sha256(self.PAYLOAD + sig.trailer()).digest()
        seen = []

        def answer(value):
            def verify(public, signature, digest):
                seen.append((public, signature, digest))
                return value
            return verify

        with pytest.raises(BadSignature):
            verify_detailed(forged, self.PAYLOAD, ring)
        with pytest.raises(BadSignature, match="invalid signature"):
            verify_detailed(sig, self.PAYLOAD, ring, ed25519_verify=answer(False))
        verified = verify_detailed(forged, self.PAYLOAD, ring, ed25519_verify=answer(True))
        assert verified.primary_fingerprint == key.fingerprint
        assert seen[1] == (key.public_point, raw, digest)
        assert len(seen) == 2

    def test_rsa_never_reaches_it(self):
        rita = fixtures.RsaTestKey()
        ring = Keyring(load_keys(rita.export_binary()))
        sig = first_signature(rita.sign(b"rsa payload\n"))
        forged = sig._replace(material=sig.material ^ 1)
        seen = []

        def everything(*check):
            seen.append(check)
            return True

        assert verify_detailed(sig, b"rsa payload\n", ring, ed25519_verify=everything)
        with pytest.raises(BadSignature):
            verify_detailed(forged, b"rsa payload\n", ring, ed25519_verify=everything)
        assert seen == []


# -- Ed25519 engines ----------------------------------------------------------

SODIUM = ed25519.libsodium()
needs_libsodium = pytest.mark.skipif(SODIUM is None, reason="libsodium does not load")


@pytest.fixture(params=["libsodium", "cryptography"])
def ed25519_engine(request, monkeypatch):
    """Run the test with each engine in turn, behind the shared rule."""
    chosen = SODIUM if request.param == "libsodium" else ed25519.CRYPTOGRAPHY
    if chosen is None:
        pytest.skip("libsodium does not load")
    monkeypatch.setattr(ed25519, "engine", lambda: chosen)
    return chosen


@pytest.mark.usefixtures("ed25519_engine")
class TestVerifyEachEngine(TestVerify):
    pass


@pytest.mark.usefixtures("ed25519_engine")
class TestIssuerResolutionEachEngine(TestIssuerResolution):
    pass


@pytest.mark.usefixtures("ed25519_engine")
class TestSubkeySignatureEachEngine(TestSubkeySignature):
    pass


@pytest.mark.usefixtures("ed25519_engine")
class TestIgnoredOpenPGPFeaturesEachEngine(TestIgnoredOpenPGPFeatures):
    pass


@pytest.mark.usefixtures("ed25519_engine")
class TestMutationDetectionEachEngine(TestMutationDetection):
    pass


_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
SMALL_ORDER = [
    (y | sign << 255).to_bytes(32, "little")
    for y in sorted(ed25519.SMALL_ORDER_Y) for sign in (0, 1)
]
IDENTITY = (1).to_bytes(32, "little")


@pytest.mark.usefixtures("ed25519_engine")
class TestStrictRule:
    PAYLOAD = b"payload\n"

    def signed(self):
        key = fixtures.key("alice")
        public = load_keys(export_public(key))[0]
        sig = first_signature(sign_for_tests(self.PAYLOAD, key))
        return public, sig

    def check(self, public, sig, material, raw):
        """Verify the 64-byte signature ``raw`` with key ``material``."""
        key = public._replace(material=material)
        forged = sig._replace(
            material=(int.from_bytes(raw[:32], "big"), int.from_bytes(raw[32:], "big")))
        return verify_detailed(forged, self.PAYLOAD, Keyring([key]))

    def test_identity_key_forgery_rejected(self):
        # A = 01 00…00 with signature A‖0³² holds for any digest under
        # the cofactorless equation; cryptography alone accepts it.
        public, sig = self.signed()
        with pytest.raises(BadSignature, match="public key has small order"):
            self.check(public, sig, IDENTITY, IDENTITY + bytes(32))

    def test_s_plus_l_rejected(self):
        public, sig = self.signed()
        r, s = sig.material
        high = int.from_bytes(s.to_bytes(32, "big"), "little") + _L
        raw = r.to_bytes(32, "big") + high.to_bytes(32, "little")
        with pytest.raises(BadSignature, match="S is not below the group order"):
            self.check(public, sig, public.material, raw)

    def test_rule_applies_before_ed25519_verify(self):
        public, sig = self.signed()
        ring = Keyring([public._replace(material=IDENTITY)])
        forged = sig._replace(material=(int.from_bytes(IDENTITY, "big"), 0))
        seen = []

        def everything(*check):
            seen.append(check)
            return True

        with pytest.raises(BadSignature, match="small order"):
            verify_detailed(forged, self.PAYLOAD, ring, ed25519_verify=everything)
        assert seen == []


def test_non_canonical_keys_refused():
    # Such a key is refused before its point is read; neither engine can
    # show the clause, since no one knows the secret of a point y < 19.
    r = fixtures.key("alice").public_point
    for y in range(_P, 2**255):
        for sign in (0, 1):
            key = (y | sign << 255).to_bytes(32, "little")
            assert ed25519.refusal(key, r + bytes(32)) == "public key is not canonical"


def _mutations():
    """(kind, value) pairs that each target one clause of the rule, or
    flip one bit of the key, the signature or the digest."""
    return st.one_of(
        st.just(("none", None)),
        st.tuples(st.sampled_from(["flip key", "flip sig", "flip digest"]), st.integers(0, 511)),
        st.tuples(st.sampled_from(["small A", "small R", "identity forgery"]),
                  st.sampled_from(SMALL_ORDER)),
        st.tuples(st.just("noncanonical A"),
                  st.integers(_P, 2**255 - 1).flatmap(
                      lambda y: st.sampled_from([y, y | 1 << 255]))),
        st.tuples(st.just("big S"), st.integers(_L, 2**256 - 1)),
        st.tuples(st.just("S + L"), st.none()),
    )


def _mutate(kind, value, public: bytes, sig: bytes, digest: bytes):
    if kind in ("flip key", "flip sig", "flip digest"):
        target = {"flip key": public, "flip sig": sig, "flip digest": digest}[kind]
        if target:
            changed = bytearray(target)
            changed[value // 8 % len(changed)] ^= 1 << value % 8
            target = bytes(changed)
        return (target if kind == "flip key" else public,
                target if kind == "flip sig" else sig,
                target if kind == "flip digest" else digest)
    if kind == "small A":
        return value, sig, digest
    if kind == "small R":
        return public, value + sig[32:], digest
    if kind == "identity forgery":
        return value, value + bytes(32), digest
    if kind == "noncanonical A":
        return value.to_bytes(32, "little"), sig, digest
    if kind == "big S":
        return public, sig[:32] + value.to_bytes(32, "little"), digest
    if kind == "S + L":
        s = int.from_bytes(sig[32:], "little") + _L
        return public, sig[:32] + s.to_bytes(32, "little"), digest
    return public, sig, digest


@needs_libsodium
class TestEnginesAgree:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.binary(min_size=32, max_size=32), digest=st.binary(max_size=64),
           mutation=_mutations())
    def test_same_verdict_behind_the_rule(self, seed, digest, mutation):
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        private = Ed25519PrivateKey.from_private_bytes(seed)
        public, sig, digest = _mutate(*mutation, private.public_key().public_bytes_raw(),
                                      private.sign(digest), digest)
        allowed = ed25519.refusal(public, sig) is None
        by_sodium = SODIUM.verify(public, sig, digest)
        by_cryptography = ed25519.CRYPTOGRAPHY.verify(public, sig, digest)
        assert (allowed and by_sodium) == (allowed and by_cryptography)
        assert allowed or not by_sodium
        if mutation[0] == "none":
            assert allowed and by_sodium

    def test_every_small_order_point_refused_as_key_and_as_r(self):
        key = fixtures.key("alice").public_point
        for point in SMALL_ORDER:
            assert ed25519.refusal(point, bytes(64)) is not None
            assert ed25519.refusal(key, point + bytes(32)) == "R has small order"
            assert not SODIUM.verify(point, point + bytes(32), b"digest")


_CHILD = """
import json, os, sys
{prelude}
import gitvouch.cli
imported = sorted(m for m in sys.modules if m.split(".")[0] == "cryptography")
from gitvouch.sigverify import (
    Keyring, SignaturePacket, dearmor, load_keys, parse_packets, verify_detailed)
from gitvouch.sigverify import ed25519
data = sys.argv[1]
read = lambda name: open(os.path.join(data, name), "rb").read()
ring = Keyring(load_keys(read("alice.asc")))
sig = next(p for p in parse_packets(dearmor(read("payload.sig"), "SIGNATURE"))
           if isinstance(p, SignaturePacket))
payload = read("payload.bin")
signer = verify_detailed(sig, payload, ring).primary_fingerprint.hex
r, s = sig.material
try:
    verify_detailed(sig._replace(material=(r, s ^ 1)), payload, ring)
    flipped = "accepted"
except Exception as exc:
    flipped = f"{{type(exc).__name__}}: {{exc}}"
print(json.dumps({{
    "imported": imported,
    "after": sorted(m for m in sys.modules if m.split(".")[0] == "cryptography"),
    "engine": ed25519.engine().name,
    "signer": signer.upper(),
    "flipped": flipped,
}}))
"""


def _run_child(prelude: str = "") -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(prelude=prelude), DATA],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


class TestEngineChoice:
    def test_cli_import_leaves_cryptography_unloaded(self):
        seen = _run_child()
        assert seen["imported"] == []
        assert seen["signer"] == ALICE_FPR
        assert seen["flipped"] == "BadSignature: Ed25519 verification failed: invalid signature"
        if SODIUM is not None:
            assert seen["engine"] == SODIUM.name
            assert seen["after"] == []

    def test_fallback_when_the_library_does_not_load(self):
        seen = _run_child(
            "import ctypes\n"
            "def no_library(*args, **kwargs):\n"
            "    raise OSError('no library')\n"
            "ctypes.CDLL = no_library\n")
        assert seen["engine"] == "cryptography"
        assert seen["signer"] == ALICE_FPR
        assert seen["flipped"] == "BadSignature: Ed25519 verification failed: invalid signature"
