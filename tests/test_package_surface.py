"""The shipped package verifies and never signs: its export lists
resolve, and no module under ``src/gitvouch`` can produce a signature.
The write side lives in ``tests/openpgp_writer.py``. Its records are
named tuples, and ``import gitvouch.cli`` loads no module that only a
rarely used path needs."""

import os
import subprocess
import sys

import pytest

import gitvouch
import gitvouch.gitstore
import gitvouch.sigverify
from gitvouch.authgraph import AuthOptions, AuthReport, ChannelIntroduction
from gitvouch.authz import AuthorizationEntry, AuthorizationList
from gitvouch.channel import ChannelMetadata, ChannelSpec, ProvenanceRecord
from gitvouch.gitstore import ObjectId
from gitvouch.sexp import Atom
from gitvouch.sigverify.keys import PublicKey
from gitvouch.sigverify.packets import KeyPacket, SignaturePacket, UnknownPacket, UserIdPacket

PACKAGE_DIR = os.path.dirname(gitvouch.__file__)


@pytest.mark.parametrize("module", [gitvouch, gitvouch.sigverify, gitvouch.gitstore],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_holds_no_signing_code():
    found = []
    for root, _, names in os.walk(PACKAGE_DIR):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    text = fh.read()
                found += [(name, word) for word in ("PrivateKey", "generate_private_key", ".sign(")
                          if word in text]
    assert not found


def test_cli_import_loads_no_costly_module():
    # ``dataclasses`` and ``inspect`` (which loads ``ast``) cost more to
    # import than a warm update's verdict; ``cryptography`` is loaded
    # only for an RSA check or without libsodium.
    code = "import sys, gitvouch.cli; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "gitvouch.cli" in out
    assert [m for m in ("dataclasses", "inspect", "ast", "cryptography") if m in out] == []


# Each record, its fields in order, and its defaults (``AuthReport``'s
# ``generation`` default is checked by calling it).
RECORDS = [
    (ChannelIntroduction, "commit signer", {}),
    (AuthOptions, "keyring_ref historical_authorizations cache cache_key",
     {"keyring_ref": "refs/heads/keyring", "historical_authorizations": None,
      "cache": None, "cache_key": None}),
    (AuthReport, "target checked cache_skipped walked policies_parsed ancestors signers "
     "worker_verified generation", {"worker_verified": 0}),
    (KeyPacket, "tag version creation_time algorithm material body", {}),
    (UserIdPacket, "value", {}),
    (UnknownPacket, "tag body", {}),
    (PublicKey, "version algorithm creation_time material fingerprint primary_fingerprint",
     {}),
    (ChannelSpec, "name url introduction", {}),
    (ChannelMetadata, "version primary_url keyring_ref",
     {"version": 0, "primary_url": None, "keyring_ref": None}),
    (ProvenanceRecord, "name url branch commit timestamp", {}),
    (Atom, "text quoted", {"quoted": False}),
    (AuthorizationEntry, "fingerprint name", {"name": None}),
    (AuthorizationList, "version entries", {}),
]


@pytest.mark.parametrize("record, fields, defaults", RECORDS,
                         ids=[record.__name__ for record, _, _ in RECORDS])
def test_record_is_a_named_tuple(record, fields, defaults):
    assert record._fields == tuple(fields.split())
    found = dict(record._field_defaults)
    if record is AuthReport:
        assert found.pop("generation")(ObjectId(bytes(20))) is None
    assert found == defaults

    values = [f"value {i}" for i in range(len(record._fields))]
    made = record(*values)
    assert made == record(*values) == tuple(values)
    changed = made._replace(**{record._fields[0]: "other"})
    assert type(changed) is record and changed[1:] == made[1:]
    shown = [(name, value) for name, value in zip(record._fields, values)
             if not (record in (KeyPacket, UnknownPacket) and name == "body")]
    assert repr(made) == f"{record.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in shown) + ")"


def test_packet_reprs_leave_out_the_packet_bytes():
    key = KeyPacket(6, 4, 0, 22, b"point", b"key body")
    assert repr(key) == "KeyPacket(tag=6, version=4, creation_time=0, algorithm=22, " \
        "material=b'point')"
    assert repr(UnknownPacket(60, b"opaque body")) == "UnknownPacket(tag=60)"
    signature = SignaturePacket(4, 0, 22, 8, (), (), b"lh", (1, 2), b"hashed portion")
    assert repr(signature) == (
        "SignaturePacket(version=4, sig_type=0, pubkey_algorithm=22, hash_algorithm=8, "
        "hashed_subpackets=(), unhashed_subpackets=(), left16=b'lh', material=(1, 2))")
