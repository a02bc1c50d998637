"""The in-repository authorization policy file.

``.guix-authorizations`` lists the fingerprints of committers allowed to
sign; the graph engine reads it from each parent commit. Unknown entry
properties are ignored: the format deliberately leaves room for
extensions, and an old reader must not choke on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from gitvouch.errors import VouchError
from gitvouch.sexp import Atom, SexpSyntaxError, parse_sexp
from gitvouch.sigverify.fingerprint import Fingerprint

AUTHORIZATIONS_FILE = ".guix-authorizations"
SUPPORTED_VERSION = 0


class BadVersion(VouchError):
    pass


class BadFingerprint(VouchError):
    pass


@dataclass(frozen=True)
class AuthorizationEntry:
    fingerprint: Fingerprint
    name: str | None = None


@dataclass(frozen=True)
class AuthorizationList:
    version: int
    entries: tuple[AuthorizationEntry, ...]


def _parse_entry(form: list) -> AuthorizationEntry:
    if not form or not isinstance(form[0], Atom) or not form[0].quoted:
        raise SexpSyntaxError(f"authorization entry must start with a fingerprint string: {form!r}")
    try:
        fingerprint = Fingerprint.parse(form[0].text)
    except ValueError as exc:
        raise BadFingerprint(str(exc)) from exc
    name = None
    for prop in form[1:]:
        if (
            isinstance(prop, list)
            and len(prop) == 2
            and prop[0] == Atom("name")
            and isinstance(prop[1], Atom)
        ):
            name = prop[1].text
        # anything else is an extension property; ignore it
    return AuthorizationEntry(fingerprint, name)


def _collect_entries(forms: list, out: list[AuthorizationEntry]) -> None:
    for form in forms:
        if not isinstance(form, list) or not form:
            raise SexpSyntaxError(f"expected an authorization entry, got {form!r}")
        if isinstance(form[0], list):
            # nested grouping level, as in some published examples;
            # flatten it
            _collect_entries(form, out)
        else:
            out.append(_parse_entry(form))


def parse_authorizations(data: bytes | str) -> AuthorizationList:
    """Parse an authorization file.

    Top form: ``(authorizations (version 0) (<entry>...))`` with each
    entry ``("<fingerprint>" (name "...")? ...)``. Duplicate
    fingerprints collapse to the first entry.
    """
    top = parse_sexp(data)
    if not isinstance(top, list) or not top or top[0] != Atom("authorizations"):
        raise SexpSyntaxError("top form must be (authorizations ...)")

    version: int | None = None
    entries: list[AuthorizationEntry] = []
    for form in top[1:]:
        if not isinstance(form, list):
            raise SexpSyntaxError(f"unexpected atom in authorizations: {form!r}")
        if form and form[0] == Atom("version"):
            if len(form) != 2 or not isinstance(form[1], Atom):
                raise BadVersion(f"malformed version form: {form!r}")
            try:
                version = int(form[1].text)
            except ValueError:
                raise BadVersion(f"non-integer version: {form[1].text!r}") from None
        else:
            _collect_entries(form, entries)

    if version is None:
        raise BadVersion("missing (version ...) form")
    if version != SUPPORTED_VERSION:
        raise BadVersion(f"unsupported authorization file version {version}")

    unique: dict[Fingerprint, AuthorizationEntry] = {}
    for entry in entries:
        unique.setdefault(entry.fingerprint, entry)
    return AuthorizationList(version=version, entries=tuple(unique.values()))


def authorized_fingerprints(alist: AuthorizationList) -> frozenset[Fingerprint]:
    return frozenset(entry.fingerprint for entry in alist.entries)

