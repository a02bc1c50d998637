"""The shipped package verifies and never signs: its export lists
resolve, and no module under ``src/gitvouch`` can produce a signature.
The write side lives in ``tests/openpgp_writer.py``."""

import os

import pytest

import gitvouch
import gitvouch.gitstore
import gitvouch.sigverify

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
