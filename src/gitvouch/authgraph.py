"""The authentication engine.

A commit is authentic iff it is signed by a key listed in the
authorization file of each of its parents. Authentication runs from a
trust anchor — the channel introduction (commit id + signer
fingerprint) — to a target commit: the target must descend from the
introduction, the introduction's own signature must match the pinned
fingerprint, and every commit in between must satisfy the invariant.
The walk from the target stops at commits a persistent, purely advisory
cache records as already authenticated, so later runs read only new
commits.
"""

from __future__ import annotations

import logging
import os
import threading
from binascii import hexlify
from collections.abc import Callable, Iterator, Mapping, Set
from dataclasses import dataclass, field
from operator import attrgetter

from gitvouch import authz
from gitvouch.errors import VouchError
from gitvouch.gitstore import graph
from gitvouch.gitstore.objects import Commit, ObjectId, parse_tree, signed_payload
from gitvouch.sexp import SexpSyntaxError
from gitvouch.sigverify import ed25519
from gitvouch.sigverify.armor import SIGNATURE, BadArmor, dearmor
from gitvouch.sigverify.fingerprint import Fingerprint
from gitvouch.sigverify.keys import Keyring, load_keys
from gitvouch.sigverify.packets import SignaturePacket, parse_packets
from gitvouch.sigverify.verify import Ed25519Verify, VerifiedSignature, verify_detailed
from gitvouch.statedir import default_state_dir, replace_file

logger = logging.getLogger(__name__)

DEFAULT_KEYRING_REF = "refs/heads/keyring"


class AuthenticationError(VouchError):
    pass


class Unsigned(AuthenticationError):
    pass


class Unauthorized(AuthenticationError):
    """``parent`` is None for a commit without parents. ``authorized``
    holds the fingerprints the parent authorized, and ``policy`` the id
    of the policy blob they were read from: None for the default or
    historical list."""

    def __init__(
        self,
        message: str,
        parent: ObjectId | None,
        authorized: frozenset[Fingerprint],
        policy: ObjectId | None,
    ) -> None:
        super().__init__(message)
        self.parent = parent
        self.authorized = authorized
        self.policy = policy


class MissingAuthorizations(AuthenticationError):
    pass


class NotDescendantOfIntroduction(AuthenticationError):
    pass


class IntroductionSignerMismatch(AuthenticationError):
    pass


class EmptyKeyring(AuthenticationError):
    pass


@dataclass(frozen=True)
class ChannelIntroduction:
    """Trust anchor: the first commit where the invariant holds, and the
    fingerprint of the key that signed it."""

    commit: ObjectId
    signer: Fingerprint


@dataclass
class AuthOptions:
    keyring_ref: str = DEFAULT_KEYRING_REF
    historical_authorizations: authz.AuthorizationList | None = None
    cache: "AuthCache | None" = None
    cache_key: str | None = None


@dataclass
class AuthReport:
    """What a successful run did. ``ancestors`` holds the target and
    every id the walk proved, by parent edges in hashed commits, to be
    an ancestor of it: the walked commits and the stop ids they name as
    parents. The cache can only shrink this set, never add to it.

    ``generation`` gives the generation number of the introduction (0),
    of an id the cache records, or of a commit this run recorded, and
    None for any other id. Only a run with a cache records commits.
    ``helper_verified`` counts the Ed25519 checks the worker thread of
    :func:`authenticate_repository` ran."""

    target: ObjectId
    checked: int
    cache_skipped: int
    walked: int
    policies_parsed: int
    ancestors: frozenset[ObjectId]
    signers: dict[ObjectId, Fingerprint] = field(default_factory=dict)
    helper_verified: int = 0
    generation: Callable[[ObjectId], int | None] = lambda oid: None


class AuthCache:
    """Per-user record of commit ids already authenticated under an
    introduction, one file per cache key.

    Every id in a file descends from the introduction its header line
    names, so a walk that reaches one has proved descent as well as
    authenticity. The file is a header line, ``introduction <commit hex>
    <signer hex> generations``, then one line per id: the id in 40
    lowercase hex digits, a space, and its generation number in 8
    lowercase hex digits. The introduction's generation is 0, and a
    commit's is one more than the largest among its parents that
    descend from the introduction. Lines are appended in batches with no
    overall order. Purely advisory: a file that is missing, unparsable,
    or headed for another introduction reads as empty (one full check,
    after which it is replaced), and write failures are warnings.
    Generation numbers only prune the walks of
    :func:`~gitvouch.channel.fast_forward_check`, so a false one can
    cause a refusal, never an acceptance.
    """

    def __init__(self, state_dir: str | None = None) -> None:
        self.state_dir = state_dir if state_dir is not None else default_state_dir()

    @staticmethod
    def key_for(intro: ChannelIntroduction) -> str:
        return f"{intro.commit.hex}-{intro.signer.hex}"

    @staticmethod
    def _header(intro: ChannelIntroduction) -> bytes:
        return f"introduction {intro.commit.hex} {intro.signer.hex} generations\n".encode("ascii")

    def _path(self, key: str) -> str:
        return os.path.join(self.state_dir, "authentication", key)

    def read(self, key: str, intro: ChannelIntroduction) -> "_CachedIds":
        """The ids recorded under ``key``, as a read-only set whose
        ``generation`` method gives each one's generation number.

        Only what :meth:`write` produces is accepted: the header, then
        lines of exactly 40 lowercase hex digits, a space, 8 lowercase
        hex digits and ``\\n``. The checks are byte operations over the
        whole file, and the set is backed by the file's words, so
        reading it, ``in`` and ``len()`` run no Python code per cached
        id.
        """
        try:
            with open(self._path(key), "rb") as fh:
                content = fh.read()
        except OSError:
            return _NO_IDS
        header = self._header(intro)
        if not content.startswith(header):
            logger.warning("ignoring authentication cache %s: not written for "
                           "this introduction", key)
            return _NO_IDS
        body = content[len(header):]
        count, rest = divmod(len(body), _LINE)
        # Each line has its space and newline in place, and the file has
        # no other byte that is not a lowercase hex digit.
        if (
            rest
            or body[_SPACE::_LINE] != b" " * count
            or body[_LINE - 1 :: _LINE] != b"\n" * count
            or body.translate(None, _HEX_DIGITS) != b" \n" * count
        ):
            logger.warning("ignoring unparsable authentication cache %s", key)
            return _NO_IDS
        words = body.split()
        return _CachedIds(dict(zip(words[0::2], words[1::2])))

    def write(
        self,
        key: str,
        intro: ChannelIntroduction,
        generations: Mapping[ObjectId, int],
        known: Set[ObjectId],
    ) -> None:
        """Record each id of ``generations`` with its generation number,
        given ``known``, what :meth:`read` returned for this key.

        Nothing is written when every id is known. When ``known`` is not
        empty the file was read intact, so only the new ids are appended,
        provided the file still carries this introduction's header.
        Otherwise the file is atomically replaced. An id whose number
        does not fit in 8 hex digits, which only a false cached number
        can cause, is not recorded.
        """
        lines = "".join(
            f"{oid.hex} {gen:08x}\n" for oid, gen in generations.items()
            if oid not in known and gen <= _MAX_GENERATION
        ).encode("ascii")
        if not lines:
            return
        header = self._header(intro)
        path = self._path(key)
        try:
            if known and self._append(path, header, lines):
                return
            os.makedirs(os.path.dirname(path), exist_ok=True)
            replace_file(path, header + lines, ".cache-")
        except OSError as exc:
            logger.warning("could not write authentication cache %s: %s", key, exc)

    @staticmethod
    def _append(path: str, header: bytes, lines: bytes) -> bool:
        """Append ``lines`` if the file at ``path`` starts with ``header``.

        The header is read through the descriptor that is written, so a
        file replaced in between by another run, perhaps for another
        introduction sharing the key, is never extended. One ``O_APPEND``
        write keeps concurrent appends whole.
        """
        try:
            fd = os.open(path, os.O_RDWR | os.O_APPEND)
        except FileNotFoundError:
            return False
        try:
            if os.pread(fd, len(header), 0) != header:
                return False
            os.write(fd, lines)
        finally:
            os.close(fd)
        return True


# A cache line: an id in 40 lowercase hex digits, a space, its
# generation number in 8 lowercase hex digits, and a newline.
_LINE = 50
_SPACE = 40
_HEX_DIGITS = b"0123456789abcdef"
_MAX_GENERATION = 0xFFFFFFFF


class _CachedIds(Set):
    """Read-only set of ids backed by a dict from their lowercase hex
    spellings to their generation numbers' hex spellings, all ASCII
    bytes.

    Membership and length cost no more than on the hex strings; only
    iteration builds ``ObjectId`` values, one per id, when asked, and
    :meth:`generation` parses one number per call. Set operations
    return plain sets.
    """

    __slots__ = ("_hex",)

    def __init__(self, hex_generations: dict[bytes, bytes]) -> None:
        self._hex = hex_generations

    def __contains__(self, oid) -> bool:
        try:
            return hexlify(oid.raw) in self._hex
        except (AttributeError, TypeError):
            return False

    def __len__(self) -> int:
        return len(self._hex)

    def __iter__(self) -> Iterator[ObjectId]:
        return map(ObjectId.from_hex, self._hex)

    def generation(self, oid: ObjectId) -> int | None:
        """The generation number recorded for ``oid``, or None."""
        gen = self._hex.get(hexlify(oid.raw))
        return None if gen is None else int(gen, 16)

    @classmethod
    def _from_iterable(cls, iterable) -> set:
        return set(iterable)


_NO_IDS = _CachedIds({})


class _StopIds:
    """The walk's stop set, the introduction or any cached id, answered
    without copying the cache."""

    __slots__ = ("_intro", "_cached")

    def __init__(self, intro: ObjectId, cached: Set[ObjectId]) -> None:
        self._intro = intro
        self._cached = cached

    def __contains__(self, oid) -> bool:
        return oid == self._intro or oid in self._cached


def load_keyring(store, keyring_ref: str = DEFAULT_KEYRING_REF) -> Keyring:
    """Load every OpenPGP key reachable from the keyring branch's tree.

    Files that hold neither binary packets nor armored keys are skipped
    (warned about); an entirely keyless branch is fatal since no commit
    could ever verify.
    """
    tip = store.resolve_ref(keyring_ref)
    commit = graph.read_commit(store, tip)
    keyring = Keyring()
    skipped = 0
    # A recursive walk's order, since the first key read under a
    # fingerprint is kept, with each tree and blob read once. A path is
    # kept as (name, link of the tree above) and spelled out only for a
    # warning, so a deep tree costs no more per level than a shallow one.
    trees, blobs = {commit.tree}, set()
    stack = [(iter(parse_tree(store.read_object(commit.tree).payload)), None)]
    while stack:
        entries, link = stack[-1]
        entry = next(entries, None)
        if entry is None:
            stack.pop()
            continue
        seen = trees if entry.is_tree else blobs
        if entry.id in seen:
            continue
        seen.add(entry.id)
        link = (entry.name, link)
        if entry.is_tree:
            stack.append((iter(parse_tree(store.read_object(entry.id).payload)), link))
            continue
        obj = store.read_object(entry.id)
        if obj.kind != "blob":
            continue
        try:
            keyring.update(load_keys(obj.payload))
        except VouchError:
            skipped += 1
            logger.warning("keyring file %s does not contain OpenPGP keys", _spelled(link))

    if len(keyring) == 0:
        raise EmptyKeyring(
            f"no OpenPGP keys found on {keyring_ref} ({skipped} file(s) skipped)"
        )
    if skipped:
        logger.warning("%d keyring file(s) skipped", skipped)
    return keyring


def _spelled(link) -> str:
    """The path that ``link`` keeps for :func:`load_keyring`."""
    names = []
    while link is not None:
        name, link = link
        names.append(name)
    return "/".join(reversed(names))


def _verify_commit(
    commit: Commit, keyring: Keyring, ed25519_verify: Ed25519Verify | None = None
) -> VerifiedSignature:
    """Verify the first signature packet of ``commit``'s signature."""
    if commit.signature is None:
        raise Unsigned("commit is not signed")
    for packet in parse_packets(dearmor(commit.signature, SIGNATURE)):
        if isinstance(packet, SignaturePacket):
            return verify_detailed(
                packet, signed_payload(commit), keyring, ed25519_verify=ed25519_verify)
    raise BadArmor("signature header carries no signature packet")


def authenticate_commit(
    commit: Commit,
    keyring: Keyring,
    parent_authorizations: list[
        tuple[ObjectId | None, ObjectId | None, frozenset[Fingerprint]]
    ],
    *,
    ed25519_verify: Ed25519Verify | None = None,
) -> Fingerprint:
    """Check one commit: valid signature first, then membership of the
    signer in every parent's authorized set. Returns the signer's
    primary fingerprint. ``parent_authorizations`` holds, for each
    parent, its id, the id of its policy blob (None for the historical
    list) and the fingerprints authorized there. ``ed25519_verify`` is
    passed on to :func:`~gitvouch.sigverify.verify.verify_detailed`:
    None checks Ed25519 with the engine. A commit
    without parents is checked against one set whose parent is None:
    the default authorizations.

    A fingerprint matches if it names the signer's primary key, or — as
    a documented extension — the exact signing subkey.
    """
    verified = _verify_commit(commit, keyring, ed25519_verify)
    for parent_id, policy, authorized in parent_authorizations:
        if (
            verified.primary_fingerprint not in authorized
            and verified.key_fingerprint not in authorized
        ):
            by = "the default authorizations" if parent_id is None else f"parent {parent_id}"
            source = "historical authorizations" if policy is None else f"policy blob {policy}"
            raise Unauthorized(
                f"signer {verified.primary_fingerprint.display()} is not authorized by {by} "
                f"({len(authorized)} key(s) listed by {source})",
                parent=parent_id,
                authorized=authorized,
                policy=policy,
            )
    return verified.primary_fingerprint


def parent_authorizations(
    store, parent: ObjectId, options: AuthOptions
) -> frozenset[Fingerprint]:
    """Authorized fingerprints as of ``parent``.

    When the parent carries no authorization file, historical mode
    substitutes the static list, unless one of the parent's own parents
    has the file: like Guix, a commit that removes the file is refused.
    Without historical mode a missing file is fatal. A malformed policy
    file anywhere in history is always fatal, never skipped.
    """
    return _AuthzReader(store, options).get(parent)[2]


class _AuthzReader:
    """Per-run memo of policy files: the policy blob's id by tree, and
    the authorized fingerprints by policy blob id.

    ``commits`` holds commits the run has already parsed, keyed by id;
    any other commit is read once. Memoizing by id is sound because
    every read re-hashes the object against its id, so each distinct
    tree is searched, and each distinct policy file read and parsed,
    once per run. An entry that is absent, names a tree, or names an
    object that is not a blob counts as missing.
    """

    def __init__(
        self, store, options: AuthOptions, commits: dict[ObjectId, Commit] | None = None
    ) -> None:
        self.store = store
        self.options = options
        self._commits = commits if commits is not None else {}
        self._by_tree: dict[ObjectId, ObjectId | None] = {}
        self._by_blob: dict[ObjectId, frozenset[Fingerprint]] = {}

    @property
    def policies_parsed(self) -> int:
        return len(self._by_blob)

    def get(
        self, parent: ObjectId
    ) -> tuple[ObjectId, ObjectId | None, frozenset[Fingerprint]]:
        """``parent``, the id of its policy blob and the fingerprints it
        authorizes, as :func:`authenticate_commit` takes them; the id is
        None for the historical list."""
        commit = self._commit(parent)
        blob_id = self._policy(parent, commit.tree)
        if blob_id is not None:
            return parent, blob_id, self._by_blob[blob_id]
        # Guix's assert-parents-lack-authorizations.
        for grandparent in commit.parents:
            if self._policy(grandparent, self._commit(grandparent).tree) is not None:
                raise MissingAuthorizations(
                    f"commit {parent} removes {authz.AUTHORIZATIONS_FILE}, "
                    f"which its parent {grandparent} has"
                ).annotate(parent.hex)
        if self.options.historical_authorizations is None:
            raise MissingAuthorizations(
                f"commit {parent} lacks {authz.AUTHORIZATIONS_FILE} "
                "(use historical authorizations for pre-policy history)"
            ).annotate(parent.hex)
        return parent, None, authz.authorized_fingerprints(
            self.options.historical_authorizations)

    def _commit(self, oid: ObjectId) -> Commit:
        commit = self._commits.get(oid)
        if commit is None:
            commit = self._commits[oid] = graph.read_commit(self.store, oid)
        return commit

    def _policy(self, commit_id: ObjectId, tree: ObjectId) -> ObjectId | None:
        """The id of the policy blob in ``tree``, the tree of
        ``commit_id``, or None when it is missing. A blob is parsed the
        first time it is found, and a malformed one is blamed on
        ``commit_id``."""
        if tree in self._by_tree:
            return self._by_tree[tree]
        blob_id = graph.path_entry(self.store, tree, authz.AUTHORIZATIONS_FILE)
        if blob_id is not None and blob_id not in self._by_blob:
            blob = self.store.read_object(blob_id)
            if blob.kind != "blob":
                blob_id = None
            else:
                try:
                    self._by_blob[blob_id] = authz.authorized_fingerprints(
                        authz.parse_authorizations(blob.payload))
                except (SexpSyntaxError, authz.BadVersion, authz.BadFingerprint) as exc:
                    raise exc.annotate(commit_id.hex)
        self._by_tree[tree] = blob_id
        return blob_id


# Fewest deferred checks for which the worker thread starts. Starting,
# waking and joining it cost 0.15-0.3 ms on a 2-vCPU VM (CPython 3.11,
# libsodium 1.0.18): pinned to one CPU, warm runs of 2-40 new commits
# took 5-19% longer with the worker and runs of 96-110 about 2% longer.
# With both CPUs the worker took its share only after about 5 ms of
# checks, CPython's switch interval, so it did not pay below that.
WORKER_MIN_CHECKS = 128


def _check_deferred(checks: list[tuple[bytes, bytes, bytes]]) -> int | None:
    """Run the deferred Ed25519 ``checks`` with the engine, on this
    thread and, for :data:`WORKER_MIN_CHECKS` or more, one worker thread
    taking them from the same iterator (``ctypes`` releases the GIL
    while libsodium checks). Returns how many the worker ran, or None
    when a check fails or the worker raises. The worker has ended when
    this returns."""
    verify = ed25519.engine().verify
    pending = iter(checks)

    def check_each() -> int | None:
        ran = 0
        for check in pending:
            if not verify(*check):
                # A list's iterator stops at the list's end, so the other
                # thread takes no more checks either.
                checks.clear()
                return None
            ran += 1
        return ran

    if len(checks) < WORKER_MIN_CHECKS:
        return None if check_each() is None else 0
    worker: list[int | None] = [None]  # what check_each returned there

    def work() -> None:
        try:
            worker[0] = check_each()
        except Exception:
            # The inline run that follows meets the error again, if it lasts.
            logger.debug("Ed25519 worker thread failed", exc_info=True)
            checks.clear()

    thread = threading.Thread(target=work, name="gitvouch-ed25519")
    thread.start()
    try:
        mine = check_each()
    finally:
        checks.clear()
        thread.join()
    return None if mine is None else worker[0]


def authenticate_repository(
    store,
    intro: ChannelIntroduction,
    target: ObjectId,
    options: AuthOptions | None = None,
) -> AuthReport:
    """Authenticate every commit from the introduction to ``target``.

    Steps: (1) one walk from ``target`` collects the commits reachable
    without passing through the introduction or a cached commit;
    ``target`` descends from the introduction iff that walk reaches one
    of them, since cached commits are recorded only once they are proved
    to descend from it. Commits outside that cone are inauthentic by
    definition. (2) The introductory commit's signature must match the
    pinned fingerprint; this runs on every call. (3) Every walked commit
    is checked, parents before children. (4) On success the cache
    records every checked commit proved to descend from the
    introduction, the target among them, with its generation number, so
    later runs walk only new commits. The introduction's ancestors are
    trusted and never examined.

    Step (3) records each Ed25519 operation, ``(public, signature,
    digest)``, and takes it to pass; the recorded ones then run on this
    thread and, from :data:`WORKER_MIN_CHECKS` of them, one worker
    thread. If they pass, step (3)'s outcome stands, its error included;
    if not, step (3) runs again with each operation inline, so the
    verdict, error class and commit are those of a run without deferral.
    The cache is written and the report returned only after that, and
    the worker has ended by then.
    """
    options = options if options is not None else AuthOptions()
    cache_key = options.cache_key or AuthCache.key_for(intro)
    cached = _NO_IDS
    if options.cache is not None:
        cached = options.cache.read(cache_key, intro)
    # Never iterate the cache: it may hold the whole history. Without
    # one, a plain set keeps the cold walk's lookups as cheap as before.
    stop = _StopIds(intro.commit, cached) if cached else {intro.commit}

    commits = graph.commit_difference(store, target, stop)
    walked = len(commits)
    reached = {p for c in commits for p in c.parents if p in stop} if commits else {target}
    ancestors = frozenset(map(attrgetter("id"), commits)) | reached
    if not reached:
        raise NotDescendantOfIntroduction(
            f"target {target} is not a descendant of the introductory "
            f"commit {intro.commit}"
        ).annotate(target.hex)
    if not all(map(attrgetter("parents"), commits)):
        # The walk reached a root other than the introduction, through a
        # branch forked before it or a merged unrelated history. The
        # introduction's ancestors are trusted: drop them.
        trusted = graph.commit_difference(store, intro.commit, set())
        walked += len(trusted)
        trusted_ids = {c.id for c in trusted}
        commits = [c for c in commits if c.id not in trusted_ids]

    keyring = load_keyring(store, options.keyring_ref)

    intro_commit = graph.read_commit(store, intro.commit)
    try:
        verified = _verify_commit(intro_commit, keyring)
    except VouchError as exc:
        raise exc.annotate(intro.commit.hex)
    if intro.signer not in (verified.primary_fingerprint, verified.key_fingerprint):
        raise IntroductionSignerMismatch(
            f"introductory commit is signed by "
            f"{verified.primary_fingerprint.display()}, "
            f"not the expected {intro.signer.display()}"
        ).annotate(intro.commit.hex)

    # A root other than the introduction, say of a merged unrelated
    # history, answers to the default authorizations, as in Guix.
    historical = options.historical_authorizations
    defaults = frozenset() if historical is None else authz.authorized_fingerprints(historical)
    known = {c.id: c for c in commits}
    known[intro.commit] = intro_commit
    reader = _AuthzReader(store, options, known)
    signers: dict[ObjectId, Fingerprint] = {}
    # The generation numbers of the commits this run records: those
    # with a parent that descends from the introduction.
    recorded: dict[ObjectId, int] = {}

    def generation(oid: ObjectId) -> int | None:
        if oid == intro.commit:
            return 0
        gen = recorded.get(oid)
        return gen if gen is not None else cached.generation(oid)

    def check_all(ed25519_verify: Ed25519Verify | None) -> None:
        for commit in commits:
            cid = commit.id
            try:
                parent_sets = list(map(reader.get, commit.parents))
                signers[cid] = authenticate_commit(
                    commit, keyring, parent_sets or [(None, None, defaults)],
                    ed25519_verify=ed25519_verify)
            except VouchError as exc:
                raise exc.annotate(cid.hex)
            if options.cache is not None:
                gens = [g for g in map(generation, commit.parents) if g is not None]
                if gens:
                    recorded[cid] = max(gens) + 1

    deferred: list[tuple[bytes, bytes, bytes]] = []

    def defer(public: bytes, signature: bytes, digest: bytes) -> bool:
        deferred.append((public, signature, digest))
        return True

    error = None
    try:
        check_all(defer)
    except VouchError as exc:
        error = exc
    helper_verified = _check_deferred(deferred)
    if helper_verified is None:
        signers.clear()
        recorded.clear()
        check_all(None)
        helper_verified = 0
    elif error is not None:
        raise error

    if options.cache is not None:
        options.cache.write(cache_key, intro, recorded, cached)

    return AuthReport(
        target=target,
        checked=len(signers),
        cache_skipped=len(reached & cached),
        walked=walked,
        policies_parsed=reader.policies_parsed,
        ancestors=ancestors,
        signers=signers,
        helper_verified=helper_verified,
        generation=generation,
    )
