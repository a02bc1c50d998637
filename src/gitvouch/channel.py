"""Channel plumbing around the authentication engine.

Covers the four update-safety pieces that are not the invariant itself:
channel specifications naming a trust anchor, in-repository channel
metadata (primary URL, keyring branch), fast-forward verdicts for
downgrade refusal, and the persisted provenance baseline that verdicts
are computed against.
"""

from __future__ import annotations

import enum
import fcntl
import os
import time
from collections.abc import Callable, Collection
from typing import NamedTuple

from gitvouch.authgraph import ChannelIntroduction
from gitvouch.authz import BadVersion
from gitvouch.errors import VouchError
from gitvouch.gitstore import graph
from gitvouch.gitstore.objects import ObjectId
from gitvouch.sexp import Atom, SexpSyntaxError, parse_all, print_sexp
from gitvouch.sigverify.fingerprint import Fingerprint
from gitvouch.statedir import replace_file

CHANNEL_METADATA_FILE = ".guix-channel"


class MissingIntroduction(VouchError):
    pass


class ChannelSpec(NamedTuple):
    name: str
    url: str
    introduction: ChannelIntroduction


class ChannelMetadata(NamedTuple):
    version: int = 0
    primary_url: str | None = None
    keyring_ref: str | None = None


class ProvenanceRecord(NamedTuple):
    name: str
    url: str
    branch: str
    commit: ObjectId
    timestamp: int


class FastForwardVerdict(enum.Enum):
    SAME = "same"
    FAST_FORWARD = "fast-forward"
    DOWNGRADE = "downgrade"
    UNRELATED = "unrelated"


def _symbol_text(expr) -> str:
    """Channel names may be written as bare symbols or 'quoted symbols."""
    if isinstance(expr, Atom):
        return expr.text
    if (
        isinstance(expr, list)
        and len(expr) == 2
        and expr[0] == Atom("quote")
        and isinstance(expr[1], Atom)
    ):
        return expr[1].text
    raise SexpSyntaxError(f"expected a symbol, got {expr!r}")


def _fields(form: list) -> dict[str, list]:
    out: dict[str, list] = {}
    for sub in form:
        if isinstance(sub, list) and sub and isinstance(sub[0], Atom):
            out.setdefault(sub[0].text, sub)
    return out


def _string_field(fields: dict[str, list], name: str) -> str | None:
    form = fields.get(name)
    if form is None:
        return None
    if len(form) != 2 or not isinstance(form[1], Atom):
        raise SexpSyntaxError(f"malformed ({name} ...) form")
    return form[1].text


def _parse_introduction(form: list) -> ChannelIntroduction:
    # (introduction (make-channel-introduction "<commit>"
    #                 (openpgp-fingerprint "<fingerprint>")))
    if len(form) != 2 or not isinstance(form[1], list):
        raise SexpSyntaxError("malformed (introduction ...) form")
    maker = form[1]
    if (
        len(maker) != 3
        or maker[0] != Atom("make-channel-introduction")
        or not isinstance(maker[1], Atom)
        or not isinstance(maker[2], list)
        or len(maker[2]) != 2
        or maker[2][0] != Atom("openpgp-fingerprint")
        or not isinstance(maker[2][1], Atom)
    ):
        raise SexpSyntaxError("malformed (make-channel-introduction ...) form")
    try:
        commit = ObjectId.from_hex(maker[1].text)
    except ValueError as exc:
        raise SexpSyntaxError(f"bad introductory commit: {exc}") from exc
    try:
        signer = Fingerprint.parse(maker[2][1].text)
    except ValueError as exc:
        raise SexpSyntaxError(f"bad introduction fingerprint: {exc}") from exc
    return ChannelIntroduction(commit=commit, signer=signer)


def parse_channel_spec(data: bytes | str) -> list[ChannelSpec]:
    """Parse a channels file: zero or more ``(channel ...)`` forms, each
    carrying name, url, and a mandatory introduction. A channel without
    an introduction cannot be authenticated and is rejected."""
    specs = []
    for form in parse_all(data, allow_trailing_closers=True):
        # Tolerate a wrapping (list (channel ...) ...) form.
        if isinstance(form, list) and form and form[0] == Atom("list"):
            inner = form[1:]
        else:
            inner = [form]
        for channel_form in inner:
            if not (
                isinstance(channel_form, list)
                and channel_form
                and channel_form[0] == Atom("channel")
            ):
                raise SexpSyntaxError(f"expected a (channel ...) form, got {channel_form!r}")
            fields = _fields(channel_form[1:])
            name_form = fields.get("name")
            if name_form is None or len(name_form) != 2:
                raise SexpSyntaxError("channel without a (name ...) form")
            url = _string_field(fields, "url")
            if url is None:
                raise SexpSyntaxError("channel without a (url ...) form")
            intro_form = fields.get("introduction")
            if intro_form is None:
                raise MissingIntroduction(
                    "channel has no introduction; nothing can be authenticated"
                )
            specs.append(
                ChannelSpec(
                    name=_symbol_text(name_form[1]),
                    url=url,
                    introduction=_parse_introduction(intro_form),
                )
            )
    return specs


def parse_channel_metadata(data: bytes | str) -> ChannelMetadata:
    """Parse a ``.guix-channel`` file. Unknown forms are ignored."""
    forms = parse_all(data)
    if len(forms) != 1 or not isinstance(forms[0], list) or not forms[0] or forms[0][0] != Atom("channel"):
        raise SexpSyntaxError("metadata must be a single (channel ...) form")
    fields = _fields(forms[0][1:])
    version_text = _string_field(fields, "version")
    if version_text is None:
        raise BadVersion("channel metadata lacks (version ...)")
    try:
        version = int(version_text)
    except ValueError:
        raise BadVersion(f"non-integer metadata version {version_text!r}") from None
    if version != 0:
        raise BadVersion(f"unsupported channel metadata version {version}")
    return ChannelMetadata(
        version=version,
        primary_url=_string_field(fields, "url"),
        keyring_ref=_string_field(fields, "keyring-reference"),
    )


def read_channel_metadata(store, commit: ObjectId) -> ChannelMetadata:
    """Metadata at a commit's tree; an absent file means all defaults."""
    data = graph.read_path_at_commit(store, commit, CHANNEL_METADATA_FILE)
    if data is None:
        return ChannelMetadata()
    return parse_channel_metadata(data)


def fast_forward_check(
    store,
    current: ObjectId,
    target: ObjectId,
    ancestors: Collection[ObjectId] = frozenset(),
    generation: Callable[[ObjectId], int | None] | None = None,
) -> FastForwardVerdict:
    """Relate two commits: equal, forward, backward, or divergent.

    ``ancestors`` holds ids already proved to be ``target`` or its
    ancestors, such as :attr:`AuthReport.ancestors` from authenticating
    ``target``. ``generation`` gives an id's generation number or None,
    such as :attr:`AuthReport.generation`. The checks run in this order:

    1. ``SAME`` when the ids are equal;
    2. ``FAST_FORWARD`` when ``current`` is in ``ancestors``, with no walk;
    3. two breadth-first walks in lockstep, one commit read from each
       per round: from ``current`` looking for ``target``
       (``DOWNGRADE``), and from ``target`` looking for ``current``
       (``FAST_FORWARD``, needed only when ``current`` is hidden from
       the proof, for instance behind an id another run cached). Both
       are pruned by ``generation``
       (:func:`~gitvouch.gitstore.graph.ancestor_steps`), so when both
       tips are numbered the walk that cannot succeed reads nothing,
       and on a history numbered throughout a refused downgrade or an
       unrelated tip reads only the commits numbered between the two
       tips. The first walk to meet its goal answers;
    4. ``UNRELATED`` once both walks are spent.

    The order cannot change a verdict: over an acyclic history each id
    is an ancestor of the other only when the two are equal, so at most
    one of the checks can succeed. ``ancestors`` is trusted as given, so
    it must hold only ids proved from parent edges in hashed commits, as
    the walks are. Generation numbers are not trusted: they only stop a
    walk early, which can turn an ancestor into a non-ancestor and never
    the reverse. A hostile cache can only shrink
    :attr:`AuthReport.ancestors` or falsify generation numbers, which
    costs more walking here or refuses an update, and never accepts a
    downgrade. ``ObjectNotFound`` is raised only for a commit a walk
    reads, so a ``current`` absent from the store may be ``UNRELATED``.
    """
    if current == target:
        store.read_object(current)
        return FastForwardVerdict.SAME
    if current in ancestors:
        return FastForwardVerdict.FAST_FORWARD
    walks = [
        (FastForwardVerdict.DOWNGRADE, graph.ancestor_steps(store, target, current, generation)),
        (FastForwardVerdict.FAST_FORWARD, graph.ancestor_steps(store, current, target, generation)),
    ]
    while walks:
        for verdict, walk in list(walks):
            found = next(walk, None)
            if found:
                return verdict
            if found is None:
                walks.remove((verdict, walk))
    return FastForwardVerdict.UNRELATED


def _normalize_url(url: str) -> str:
    return url.rstrip("/")


def staleness_check(pulled_url: str, metadata: ChannelMetadata) -> str | None:
    """Warning text when pulling from somewhere other than the channel's
    declared primary URL; None when there is nothing to warn about.

    The metadata must come from an authenticated commit — that is what
    makes the warning trustworthy.
    """
    if metadata.primary_url is None:
        return None
    if _normalize_url(pulled_url) == _normalize_url(metadata.primary_url):
        return None
    return (
        f"pulled from '{pulled_url}', a mirror of {metadata.primary_url}, "
        "which might be stale"
    )


# -- provenance -----------------------------------------------------------


def _record_form(record: ProvenanceRecord) -> list:
    return [
        Atom("channel"),
        [Atom("name"), [Atom("quote"), Atom(record.name)]],
        [Atom("url"), Atom(record.url, quoted=True)],
        [Atom("branch"), Atom(record.branch, quoted=True)],
        [Atom("commit"), Atom(record.commit.hex, quoted=True)],
        [Atom("timestamp"), Atom(str(record.timestamp))],
    ]


def _parse_record(form: list) -> ProvenanceRecord:
    fields = _fields(form[1:])
    name_form = fields.get("name")
    if name_form is None or len(name_form) != 2:
        raise SexpSyntaxError("provenance channel without a name")
    url = _string_field(fields, "url")
    commit_text = _string_field(fields, "commit")
    if url is None or commit_text is None:
        raise SexpSyntaxError("provenance channel lacks url or commit")
    try:
        commit = ObjectId.from_hex(commit_text)
    except ValueError as exc:
        raise SexpSyntaxError(f"bad provenance commit: {exc}") from exc
    branch = _string_field(fields, "branch") or "master"
    timestamp_text = _string_field(fields, "timestamp")
    try:
        timestamp = int(timestamp_text) if timestamp_text is not None else 0
    except ValueError:
        raise SexpSyntaxError(f"bad provenance timestamp {timestamp_text!r}") from None
    return ProvenanceRecord(
        name=_symbol_text(name_form[1]), url=url, branch=branch,
        commit=commit, timestamp=timestamp,
    )


def provenance_read_all(path: str) -> list[ProvenanceRecord]:
    """All records, or [] when the file does not exist yet. A corrupt
    file is fatal: silently dropping the baseline would disable
    downgrade protection."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return []
    forms = parse_all(data)
    if len(forms) != 1 or not isinstance(forms[0], list) or not forms[0] or forms[0][0] != Atom("provenance"):
        raise SexpSyntaxError(f"{path}: not a (provenance ...) file")
    fields = _fields(forms[0][1:])
    version_text = _string_field(fields, "version")
    if version_text != "0":
        raise BadVersion(f"{path}: unsupported provenance version {version_text!r}")
    records = []
    for form in forms[0][1:]:
        if isinstance(form, list) and form and form[0] == Atom("channel"):
            records.append(_parse_record(form))
    return records


def provenance_read(path: str, name: str) -> ProvenanceRecord | None:
    for record in provenance_read_all(path):
        if record.name == name:
            return record
    return None


def provenance_write(
    path: str,
    record: ProvenanceRecord,
    refuse: Callable[[ProvenanceRecord | None], str | None] | None = None,
) -> str | None:
    """Atomically merge one record into the file, keyed by channel name;
    records for other channels are preserved.

    ``refuse``, when given, is called with the record the file holds for
    the channel (None when there is none) and returns a reason to leave
    the file as it is, or None. Then nothing is written and the reason
    is returned; otherwise the result is None.

    The read, the call of ``refuse``, the merge and the replace hold one
    exclusive ``flock`` on ``<path>.lock``, so runs sharing a state
    directory never write back each other's old records, and an update
    that checks its target against the recorded one cannot be overtaken
    between the check and the write. The lock is a file of its own
    because replacing the provenance file gives it a new inode.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    with open(path + ".lock", "ab") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        records = provenance_read_all(path)
        if refuse is not None:
            current = next((r for r in records if r.name == record.name), None)
            reason = refuse(current)
            if reason is not None:
                return reason
        records = [r for r in records if r.name != record.name]
        records.append(record)
        forms: list = [Atom("provenance"), [Atom("version"), Atom("0")]]
        forms.extend(_record_form(r) for r in records)
        replace_file(path, (print_sexp(forms) + "\n").encode("utf-8"), ".provenance-")
    return None


def make_record(
    spec: ChannelSpec, branch: str, commit: ObjectId, timestamp: int | None = None
) -> ProvenanceRecord:
    return ProvenanceRecord(
        name=spec.name,
        url=spec.url,
        branch=branch,
        commit=commit,
        timestamp=timestamp if timestamp is not None else int(time.time()),
    )
