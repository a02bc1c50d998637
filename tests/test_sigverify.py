"""OpenPGP subset: armor, packets, key loading, verification.

Expected values marked "gpg:" were produced by GnuPG 2.2 on the
checked-in fixture files (gpg --list-packets / --dearmor / --list-keys)
and frozen here.
"""

import dataclasses
import hashlib
import os

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
    armor,
    dearmor,
    export_public,
    fingerprint_of,
    load_keys,
    parse_packets,
    sign_for_tests,
    split_armored_blocks,
    verify,
    verify_detailed,
)

import crc24_reference
import fixtures
from gitvouch.errors import VouchError
from gitvouch.sigverify.armor import _PLAIN_BLOCK_RE, _armored_body, crc24
from gitvouch.sigverify.verify import PROOF_SIZE, ed25519_proof

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
    return next(p for p in parse_packets(dearmor(armored)) if isinstance(p, SignaturePacket))


class TestArmor:
    @given(st.binary(max_size=300))
    def test_round_trip(self, data):
        assert dearmor(armor("SIGNATURE", data)) == data

    def test_matches_gpg_dearmor(self):
        assert hashlib.sha256(dearmor(read("payload.sig"))).hexdigest() == SIG_DEARMORED_SHA256
        assert hashlib.sha256(dearmor(read("alice.asc"))).hexdigest() == ALICE_DEARMORED_SHA256
        assert hashlib.sha256(dearmor(read("carol.asc"))).hexdigest() == CAROL_DEARMORED_SHA256

    def test_corrupted_base64_rejected(self):
        text = armor("SIGNATURE", b"some signature data here")
        lines = text.splitlines()
        lines[2] = lines[2][:-2] + "!]"
        with pytest.raises((BadArmor, BadChecksum)):
            dearmor("\n".join(lines))

    def test_flipped_payload_fails_checksum(self):
        text = armor("SIGNATURE", b"some signature data here")
        lines = text.splitlines()
        body = list(lines[2])
        body[0] = "A" if body[0] != "A" else "B"
        lines[2] = "".join(body)
        with pytest.raises((BadArmor, BadChecksum)):
            dearmor("\n".join(lines))

    def test_missing_markers(self):
        with pytest.raises(BadArmor):
            dearmor("just some text\n")
        with pytest.raises(BadArmor):
            dearmor("-----BEGIN PGP SIGNATURE-----\nYWJj\n")

    def test_checksum_optional(self):
        text = armor("SIGNATURE", b"data")
        stripped = "\n".join(l for l in text.splitlines() if not l.startswith("="))
        assert dearmor(stripped) == b"data"

    @given(st.binary(max_size=300), st.data())
    def test_plain_block_read_as_the_line_reader_reads_it(self, data, draw):
        text = armor("SIGNATURE", data)
        # One character replaced may leave the plain shape or not.
        if draw.draw(st.booleans()):
            at = draw.draw(st.integers(min_value=0, max_value=len(text) - 1))
            text = text[:at] + draw.draw(st.sampled_from("=\n\r -A:/")) + text[at + 1 :]
        plain = _PLAIN_BLOCK_RE.fullmatch(text)
        if plain is not None:
            assert _armored_body(text) == (plain[1].replace("\n", ""), plain[2])

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

    def test_split_blocks(self):
        text = armor("PUBLIC KEY BLOCK", b"one") + "\n" + armor("PUBLIC KEY BLOCK", b"two")
        blocks = split_armored_blocks(text)
        assert len(blocks) == 2
        assert [dearmor(b) for b in blocks] == [b"one", b"two"]


class TestParsePackets:
    def test_alice_packet_sequence_matches_gpg(self):
        # gpg: tag 6 plen 51, tag 13 plen 30, tag 2 plen 144
        packets = parse_packets(dearmor(read("alice.asc")))
        assert isinstance(packets[0], KeyPacket) and len(packets[0].body) == 51
        assert isinstance(packets[1], UserIdPacket) and len(packets[1].value) == 30
        assert isinstance(packets[2], SignaturePacket)
        assert packets[2].sig_type == 0x13 and packets[2].pubkey_algorithm == 22

    def test_carol_packet_sequence_matches_gpg(self):
        # gpg: tags 6, 13, 2, 14, 2 with plens 51, 30, 144, 51, 239
        packets = parse_packets(dearmor(read("carol.asc")))
        kinds = [type(p).__name__ for p in packets]
        assert kinds == ["KeyPacket", "UserIdPacket", "SignaturePacket",
                         "KeyPacket", "SignaturePacket"]
        assert len(packets[0].body) == 51
        assert packets[3].is_subkey and len(packets[3].body) == 51

    def test_empty_input(self):
        assert parse_packets(b"") == []

    def test_truncated_header(self):
        data = dearmor(read("alice.asc"))
        with pytest.raises(Truncated):
            parse_packets(data[:40])

    def test_partial_length_unsupported(self):
        # new-format tag 6 with a partial-length octet (0xE0..0xFE)
        with pytest.raises(Unsupported):
            parse_packets(bytes([0xC6, 0xE1]) + b"\x00" * 8)

    def test_v3_key_unsupported(self):
        body = b"\x03" + (1600000000).to_bytes(4, "big") + b"\x00\x00\x01" + b"\x00" * 10
        packet = bytes([0xC6, len(body)]) + body
        with pytest.raises(Unsupported):
            parse_packets(packet)


class TestFingerprint:
    def test_matches_gpg(self):
        packets = parse_packets(dearmor(read("alice.asc")))
        assert fingerprint_of(packets[0].body).hex.upper() == ALICE_FPR

    def test_deterministic(self):
        packets = parse_packets(dearmor(read("alice.asc")))
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
        keys = load_keys(dearmor(read("alice.asc")))
        assert keys[0].fingerprint.hex.upper() == ALICE_FPR

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
        data = bytearray(read(name).encode() if armored else dearmor(read(name)))
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
        fpr = verify(sig, read("payload.bin", binary=True), ring)
        assert fpr.hex.upper() == ALICE_FPR

    def test_gpg_rsa_sha512_signature(self):
        ring = Keyring(load_keys(read("rita.asc")))
        sig = first_signature(read("payload-rsa.sig"))
        assert sig.hash_algorithm == 10  # gpg: digest algo 10 (SHA-512)
        assert verify(sig, read("payload.bin", binary=True), ring).hex.upper() == RITA_FPR

    def test_flipped_payload_byte(self):
        ring = Keyring(load_keys(read("alice.asc")))
        sig = first_signature(read("payload.sig"))
        payload = bytearray(read("payload.bin", binary=True))
        payload[0] ^= 0x01
        with pytest.raises(BadSignature):
            verify(sig, bytes(payload), ring)

    def test_unknown_key(self):
        ring = Keyring(load_keys(read("carol.asc")))
        sig = first_signature(read("payload.sig"))
        with pytest.raises(UnknownKey):
            verify(sig, read("payload.bin", binary=True), ring)

    def test_round_trip_with_test_signer(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(b"payload\n", key))
        assert verify(sig, b"payload\n", ring) == key.fingerprint

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_random_payloads(self, payload):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(payload, key))
        assert verify(sig, payload, ring) == key.fingerprint

    def test_sha512_signature(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(b"data\n", key, hash_algorithm="sha512"))
        assert sig.hash_algorithm == 10
        assert verify(sig, b"data\n", ring) == key.fingerprint

    def test_text_mode_crlf_canonicalization(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(b"line one\nline two\n", key, text_mode=True))
        assert sig.sig_type == 0x01
        assert verify(sig, b"line one\r\nline two\r\n", ring) == key.fingerprint
        assert verify(sig, b"line one\nline two\n", ring) == key.fingerprint

    def test_constructed_rsa_round_trip(self):
        rita = fixtures.RsaTestKey()
        ring = Keyring(load_keys(rita.export_binary()))
        sig = first_signature(rita.sign(b"rsa payload\n"))
        assert verify(sig, b"rsa payload\n", ring) == rita.fingerprint
        sig512 = first_signature(rita.sign(b"rsa payload\n", hash_name="sha512"))
        assert verify(sig512, b"rsa payload\n", ring) == rita.fingerprint

    def test_wrong_keyring_for_rsa(self):
        rita = fixtures.RsaTestKey()
        other = fixtures.RsaTestKey()
        ring = Keyring(load_keys(other.export_binary()))
        sig = first_signature(rita.sign(b"rsa payload\n"))
        with pytest.raises(UnknownKey):
            verify(sig, b"rsa payload\n", ring)


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
        from dataclasses import replace

        with pytest.raises(BadSignature):
            verify_detailed(replace(sig, material=1 << 4096), b"payload\n", ring)


class TestWeakDigestPolicy:
    def test_sha1_rejected(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(b"data\n", key, hash_algorithm="sha1"))
        with pytest.raises(WeakDigest):
            verify(sig, b"data\n", ring)

    def test_rejected_before_any_verification(self):
        # issuer is not even in the keyring: WeakDigest must still win,
        # proving the policy check comes first
        key = fixtures.key("zed")
        ring = Keyring(load_keys(export_public(fixtures.key("alice"))))
        sig = first_signature(sign_for_tests(b"data\n", key, hash_algorithm="sha1"))
        with pytest.raises(WeakDigest):
            verify(sig, b"data\n", ring)

    def test_sha256_equivalent_passes(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(b"data\n", key, hash_algorithm="sha256"))
        assert verify(sig, b"data\n", ring) == key.fingerprint


class TestIssuerResolution:
    def test_key_id_fallback_when_no_fingerprint_subpacket(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(
            sign_for_tests(b"payload\n", key, issuer_fingerprint=False)
        )
        assert sig.issuer_fingerprint is None
        assert sig.issuer_key_id == key.fingerprint.key_id
        assert verify(sig, b"payload\n", ring) == key.fingerprint

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
        assert verify(sig, b"payload\n", ring) == signer_key.fingerprint

    def test_no_issuer_information_at_all_is_unknown(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(
            sign_for_tests(b"payload\n", key, issuer_fingerprint=False)
        )
        # strip the unhashed area (where the key id lives)
        from dataclasses import replace

        stripped = replace(sig, unhashed_subpackets=())
        with pytest.raises(UnknownKey):
            verify(stripped, b"payload\n", ring)


class TestSubkeySignature:
    def test_signature_reports_primary_fingerprint(self):
        # build a signature issued by carol's signing subkey, using gpg
        # fixture key material is public only, so fabricate: sign with a
        # fixture key bound as subkey of another primary
        primary = fixtures.key("carol")
        sub = fixtures.key("carol-sub")
        keys = load_keys(export_public(primary)) + load_keys(export_public(sub))
        # rebind: pretend sub is a subkey of primary
        from dataclasses import replace

        rebound = replace(keys[1], primary_fingerprint=primary.fingerprint)
        ring = Keyring([keys[0], rebound])
        sig = first_signature(sign_for_tests(b"payload\n", sub))
        result = verify_detailed(sig, b"payload\n", ring)
        assert result.key_fingerprint == sub.fingerprint
        assert result.primary_fingerprint == primary.fingerprint
        assert verify(sig, b"payload\n", ring) == primary.fingerprint


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
        fpr = verify(sig, read("payload.bin", binary=True), ring)
        assert fpr.hex.upper() == self.EXPIRED_FPR

    def test_revoked_key_still_verifies(self):
        # the export carries the revocation signature packet; loading
        # must skip it and verification must not care
        keys = load_keys(read("revoked.asc"))
        assert keys[0].fingerprint.hex.upper() == self.REVOKED_FPR
        ring = Keyring(keys)
        sig = first_signature(read("revoked.sig"))
        fpr = verify(sig, read("payload.bin", binary=True), ring)
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
        binary = bytearray(dearmor(armored))
        bit = data.draw(st.integers(min_value=0, max_value=len(binary) * 8 - 1))
        binary[bit // 8] ^= 1 << (bit % 8)
        from gitvouch.errors import VouchError

        try:
            sig = next(
                p for p in parse_packets(bytes(binary)) if isinstance(p, SignaturePacket)
            )
            fpr = verify(sig, payload, ring)
            # the only acceptable "success" is the genuine signer
            assert fpr == key.fingerprint
        except (VouchError, StopIteration):
            pass


class TestProofs:
    """A proof skips the Ed25519 operation for its exact check only."""

    PAYLOAD = b"payload\n"

    def forged(self):
        key = fixtures.key("alice")
        ring = Keyring(load_keys(export_public(key)))
        sig = first_signature(sign_for_tests(self.PAYLOAD, key))
        proof = verify_detailed(sig, self.PAYLOAD, ring).proof
        r, s = sig.material
        forged = dataclasses.replace(sig, material=(r, s ^ 1))
        return ring, proof, forged

    def test_proof_layout(self):
        _, proof, forged = self.forged()
        assert len(proof) == PROOF_SIZE
        assert proof[0] == 32  # SHA-256
        material = fixtures.key("alice").public_point
        assert proof[1:33] == material

    def test_other_check_does_not_skip(self):
        ring, proof, forged = self.forged()
        material, digest = proof[1:33], proof[97:97 + proof[0]]
        r, s = forged.material
        raw = r.to_bytes(32, "big") + s.to_bytes(32, "big")
        other_key = fixtures.key("bob").public_point
        for proofs in (
            {proof},                                            # the true signature
            {ed25519_proof(other_key, raw, digest)},            # another key
            {ed25519_proof(material, raw, bytes(32))},          # another digest
            {ed25519_proof(material, raw, digest + bytes(32))},  # the digest padded
            {ed25519_proof(material, raw, digest)[:-1]},        # cut short
        ):
            with pytest.raises(BadSignature):
                verify_detailed(forged, self.PAYLOAD, ring, proofs=proofs)
        with pytest.raises(BadSignature):
            verify_detailed(forged, self.PAYLOAD, ring)
        exact = {ed25519_proof(material, raw, digest)}
        assert verify_detailed(forged, self.PAYLOAD, ring, proofs=exact).proof in exact

    def test_rsa_always_checked(self):
        rita = fixtures.RsaTestKey()
        ring = Keyring(load_keys(rita.export_binary()))
        sig = first_signature(rita.sign(b"rsa payload\n"))
        assert verify_detailed(sig, b"rsa payload\n", ring).proof is None
        forged = dataclasses.replace(sig, material=sig.material ^ 1)

        class Everything:
            def __contains__(self, proof):
                return True

        with pytest.raises(BadSignature):
            verify_detailed(forged, b"rsa payload\n", ring, proofs=Everything())
