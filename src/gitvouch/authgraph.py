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

import gc
import logging
import os
import signal
import struct
import tempfile
import threading
import time
from binascii import hexlify
from collections.abc import Callable, Container, Iterator, Mapping, Set
from dataclasses import dataclass, field
from operator import attrgetter

from gitvouch import authz
from gitvouch.errors import VouchError
from gitvouch.gitstore import graph
from gitvouch.gitstore.objects import Commit, ObjectId, parse_tree, signed_payload
from gitvouch.sexp import SexpSyntaxError
from gitvouch.sigverify.armor import SIGNATURE, BadArmor, dearmor
from gitvouch.sigverify.fingerprint import Fingerprint
from gitvouch.sigverify.keys import Keyring, load_keys
from gitvouch.sigverify.packets import SignaturePacket, parse_packets
from gitvouch.sigverify.verify import PROOF_SIZE, VerifiedSignature, verify_detailed
from gitvouch.statedir import default_state_dir

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
    None for any other id. Only a run with a cache records commits."""

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
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".cache-")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(header + lines)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
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

    def walk(tree_id: ObjectId, prefix: str) -> None:
        nonlocal skipped
        for entry in parse_tree(store.read_object(tree_id).payload):
            path = f"{prefix}{entry.name}"
            if entry.is_tree:
                walk(entry.id, path + "/")
                continue
            obj = store.read_object(entry.id)
            if obj.kind != "blob":
                continue
            try:
                keyring.update(load_keys(obj.payload))
            except VouchError:
                skipped += 1
                logger.warning("keyring file %s does not contain OpenPGP keys", path)

    walk(commit.tree, "")
    if len(keyring) == 0:
        raise EmptyKeyring(
            f"no OpenPGP keys found on {keyring_ref} ({skipped} file(s) skipped)"
        )
    if skipped:
        logger.warning("%d keyring file(s) skipped", skipped)
    return keyring


def _verify_commit(
    commit: Commit, keyring: Keyring, proofs: Container[bytes] = frozenset()
) -> VerifiedSignature:
    """Verify the first signature packet of ``commit``'s signature."""
    if commit.signature is None:
        raise Unsigned("commit is not signed")
    for packet in parse_packets(dearmor(commit.signature, SIGNATURE)):
        if isinstance(packet, SignaturePacket):
            return verify_detailed(packet, signed_payload(commit), keyring, proofs=proofs)
    raise BadArmor("signature header carries no signature packet")


def authenticate_commit(
    commit: Commit,
    keyring: Keyring,
    parent_authorizations: list[
        tuple[ObjectId | None, ObjectId | None, frozenset[Fingerprint]]
    ],
    *,
    proofs: Container[bytes] = frozenset(),
) -> Fingerprint:
    """Check one commit: valid signature first, then membership of the
    signer in every parent's authorized set. Returns the signer's
    primary fingerprint. ``parent_authorizations`` holds, for each
    parent, its id, the id of its policy blob (None for the historical
    list) and the fingerprints authorized there. ``proofs`` is passed on
    to :func:`~gitvouch.sigverify.verify.verify_detailed`. A commit
    without parents is checked against one set whose parent is None:
    the default authorizations.

    A fingerprint matches if it names the signer's primary key, or — as
    a documented extension — the exact signing subkey.
    """
    verified = _verify_commit(commit, keyring, proofs)
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


# Fewest commits left to check for which a helper is forked. Measured
# on a 2-vCPU VM (CPython 3.11, libsodium 1.0.18, a 29 MB process): a
# helper that does nothing costs 4.0-5.3 ms (fork, the caller's
# copy-on-write faults, kill and reap), the time of 50-70 Ed25519
# verifies at 0.08 ms. A helper proves about half of the commits before
# the two processes meet, and the two slow each other down on this VM,
# so runs with and without a helper on linear chains broke even between
# 96 and 128 commits (four sets of 60-80 interleaved runs, 48-384
# commits). At 128 commits the helper's median was lower in three sets
# (15.3 -> 15.0, 20.7 -> 18.2, 21.4 -> 19.6 ms); at 96 it lost two of
# three. In the fourth set the second CPU was busy, and the helper lost
# at every size.
HELPER_MIN_COMMITS = 128

# One record per commit the helper proved: the commit's index in the
# run's list, then its Ed25519 proof.
_RECORD = struct.Struct(f">I{PROOF_SIZE}s")

# Least time between two reads of the helper's pipe: a few commits.
_POLL_S = 0.0003


class _Proofs(set):
    """One run's proof records; counts the lookups that found one."""

    hits = 0

    def __contains__(self, proof) -> bool:
        found = set.__contains__(self, proof)
        self.hits += found
        return found


def _helper_wanted(left: int) -> bool:
    return (
        left >= HELPER_MIN_COMMITS
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _prove(commits: list[Commit], keyring: Keyring, fd: int) -> None:
    """The helper's whole life: check ``commits`` from the last one
    backwards and write a record to ``fd`` for each Ed25519 check that
    passes. It reads no store, logs nothing, and never returns."""
    try:
        # The helper ends with the run; a collection would only copy
        # pages it shares with the caller.
        gc.disable()
        for index in range(len(commits) - 1, -1, -1):
            try:
                proof = _verify_commit(commits[index], keyring).proof
            except VouchError:
                continue
            if proof is not None:
                os.write(fd, _RECORD.pack(index, proof))
    finally:
        os._exit(0)


class _Helper:
    """A forked process that proves a run's Ed25519 checks from the last
    commit backwards while the caller checks from the first.

    The caller never waits for it: a record not yet sent, never sent,
    cut short or garbled only means that the caller makes that check
    itself. :meth:`stop` kills and reaps the process; so does a start
    cut short after the fork.
    """

    def __init__(self, commits: list[Commit], keyring: Keyring) -> None:
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            os.close(read)
            _prove(commits, keyring, write)
        self._fd = read
        try:
            os.close(write)
            os.set_blocking(read, False)
        except BaseException:
            self.stop()
            raise
        self._partial = b""
        self._next_read = 0.0
        self.reached = len(commits)  # the lowest index proved so far

    def poll(self, proofs: set[bytes]) -> bool:
        """Add the records sent so far to ``proofs``; False once the
        helper has closed its end. The pipe is read at most once per
        :data:`_POLL_S`, since a read that finds nothing costs a raised
        exception, more than the Python work of checking a commit."""
        now = time.perf_counter()
        if now < self._next_read:
            return True
        self._next_read = now + _POLL_S
        try:
            data = os.read(self._fd, 1 << 16)
        except BlockingIOError:
            return True
        if not data:
            return False
        data = self._partial + data
        whole = len(data) - len(data) % _RECORD.size
        self._partial = data[whole:]
        for index, proof in _RECORD.iter_unpack(data[:whole]):
            proofs.add(proof)
            self.reached = min(self.reached, index)
        return True

    def stop(self) -> None:
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        finally:
            os.close(self._fd)


def authenticate_repository(
    store,
    intro: ChannelIntroduction,
    target: ObjectId,
    options: AuthOptions | None = None,
    *,
    keyring: Keyring | None = None,
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

    When at least :data:`HELPER_MIN_COMMITS` commits are left for step
    (3), a second CPU is free and no other thread runs, one forked
    helper verifies the same commits from the last one backwards and
    sends back each Ed25519 check that passed. Step (3) still makes
    every check for every commit in the same order and only skips the
    public-key operation of a check the helper has already proved, so
    verdicts and errors are those of a run without it. The helper is
    killed and reaped before this returns or raises.
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

    if keyring is None:
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

    proofs = _Proofs()
    helper = None
    try:
        if _helper_wanted(len(commits)):
            try:
                helper = _Helper(commits, keyring)
            except OSError as exc:
                logger.debug("no helper process: %s", exc)
        for index, commit in enumerate(commits):
            # Once the helper has passed this commit, every later one is
            # proved or failed its check there: it has nothing left to add.
            if helper is not None and not (helper.poll(proofs) and helper.reached > index):
                helper.stop()
                helper = None
            cid = commit.id
            try:
                parent_sets = list(map(reader.get, commit.parents))
                signers[cid] = authenticate_commit(
                    commit, keyring, parent_sets or [(None, None, defaults)], proofs=proofs)
            except VouchError as exc:
                raise exc.annotate(cid.hex)
            if options.cache is not None:
                gens = [g for g in map(generation, commit.parents) if g is not None]
                if gens:
                    recorded[cid] = max(gens) + 1
    finally:
        if helper is not None:
            helper.stop()

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
        helper_verified=proofs.hits,
        generation=generation,
    )
