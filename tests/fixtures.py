"""Shared builders: deterministic keys, paper-figure graphs, random
repositories with known-good verdicts, and loose-object export for CLI
tests."""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

from gitvouch.authgraph import ChannelIntroduction
from gitvouch.authz import AuthorizationEntry, AuthorizationList
from gitvouch.gitstore import MemoryStore, ObjectId, TreeEntry, serialize_tree
from gitvouch.sigverify import Fingerprint
from openpgp_writer import (  # noqa: F401  (RsaTestKey, claim_algorithm: for tests)
    RsaTestKey,
    SigningKey,
    claim_algorithm,
    export_public,
    print_authorizations,
    sign_for_tests,
)

_KEY_CACHE: dict[str, SigningKey] = {}


def key(name: str) -> SigningKey:
    """Deterministic Ed25519 key for a character name."""
    cached = _KEY_CACHE.get(name)
    if cached is None:
        cached = SigningKey.from_seed(
            b"gitvouch-fixture-" + name.encode(), f"{name.title()} <{name}@example.org>"
        )
        _KEY_CACHE[name] = cached
    return cached


def signer(k: SigningKey, **kwargs):
    return lambda payload: sign_for_tests(payload, k, **kwargs)


def authz_bytes(*keys: SigningKey, version: int = 0) -> bytes:
    entries = tuple(AuthorizationEntry(k.fingerprint, k.user_id) for k in keys)
    return print_authorizations(AuthorizationList(version, entries)).encode()


def add_keyring_branch(
    store: MemoryStore, keys, ref: str = "refs/heads/keyring", nested: bool = False
) -> ObjectId:
    files = {}
    for i, k in enumerate(keys):
        prefix = f"people/group{i % 2}/" if nested else ""
        files[f"{prefix}{i}-{k.user_id.split()[0].lower()}.key"] = export_public(k).encode()
    commit = store.commit_files(files, message="keys\n")
    store.set_ref(ref, commit)
    return commit


class CountingStore:
    """A store that counts ``read_object`` calls, in total and by id, and
    forwards everything else, for tests that bound how much of the
    history a run reads."""

    def __init__(self, store) -> None:
        self._store = store
        self.reads = 0
        self.reads_by_id: Counter[ObjectId] = Counter()

    def read_object(self, oid: ObjectId):
        self.reads += 1
        self.reads_by_id[oid] += 1
        return self._store.read_object(oid)

    def __getattr__(self, name):
        return getattr(self._store, name)


def fig4(mutation: str | None = None) -> SimpleNamespace:
    """The two-branch-plus-merge graph with an authorization handover:
    only alice is authorized at the root; alice and bob everywhere else;
    the merge is signed by alice.

    Mutations: ``unsigned_c``, ``c_unlisted_key`` (signed by a key in
    the keyring that no policy lists), ``f_not_in_e`` (one merge parent
    does not authorize the merge's signer).
    """
    alice, bob, charlie = key("alice"), key("bob"), key("charlie")
    store = MemoryStore()
    add_keyring_branch(store, [alice, bob, charlie])

    both = authz_bytes(alice, bob)
    a = store.commit_files({".guix-authorizations": authz_bytes(alice)},
                           message="A\n", sign_with=signer(alice))
    b = store.commit_files({".guix-authorizations": both}, [a],
                           message="B: add bob\n", sign_with=signer(alice))

    if mutation == "unsigned_c":
        c = store.commit_files({".guix-authorizations": both}, [b], message="C\n")
    elif mutation == "c_unlisted_key":
        c = store.commit_files({".guix-authorizations": both}, [b],
                               message="C\n", sign_with=signer(charlie))
    else:
        c = store.commit_files({".guix-authorizations": both}, [b],
                               message="C\n", sign_with=signer(bob))

    d = store.commit_files({".guix-authorizations": both}, [c],
                           message="D\n", sign_with=signer(bob))
    e_policy = authz_bytes(alice) if mutation == "f_not_in_e" else both
    e = store.commit_files({".guix-authorizations": e_policy}, [b],
                           message="E\n", sign_with=signer(alice))
    f_signer = bob if mutation == "f_not_in_e" else alice
    f = store.commit_files({".guix-authorizations": both}, [d, e],
                           message="F: merge\n", sign_with=signer(f_signer))
    store.set_ref("refs/heads/master", f)

    return SimpleNamespace(
        store=store, a=a, b=b, c=c, d=d, e=e, f=f,
        alice=alice, bob=bob, charlie=charlie,
        intro=ChannelIntroduction(a, alice.fingerprint),
    )


def fig5() -> SimpleNamespace:
    """Introduction in the middle of history: targets under the
    introductory commit's cone pass; the sibling branch (g, h) hangs off
    the introduction's parent and is out of bounds."""
    alice, bob = key("alice"), key("bob")
    store = MemoryStore()
    add_keyring_branch(store, [alice, bob])
    both = authz_bytes(alice, bob)

    a = store.commit_files({".guix-authorizations": both},
                           message="A\n", sign_with=signer(alice))
    b = store.commit_files({".guix-authorizations": both}, [a],
                           message="B\n", sign_with=signer(alice))
    c = store.commit_files({".guix-authorizations": both}, [b],
                           message="C\n", sign_with=signer(bob))
    d = store.commit_files({".guix-authorizations": both}, [c],
                           message="D\n", sign_with=signer(bob))
    e = store.commit_files({".guix-authorizations": both}, [b],
                           message="E\n", sign_with=signer(alice))
    f = store.commit_files({".guix-authorizations": both}, [d, e],
                           message="F\n", sign_with=signer(alice))
    g = store.commit_files({".guix-authorizations": both}, [a],
                           message="G\n", sign_with=signer(alice))
    h = store.commit_files({".guix-authorizations": both}, [g],
                           message="H\n", sign_with=signer(alice))
    store.set_ref("refs/heads/master", f)
    store.set_ref("refs/heads/old", h)

    return SimpleNamespace(
        store=store, a=a, b=b, c=c, d=d, e=e, f=f, g=g, h=h,
        alice=alice, bob=bob,
        intro=ChannelIntroduction(b, alice.fingerprint),
    )


def linear_chain(n: int, *, policy_keys=None, signing_key=None) -> SimpleNamespace:
    alice = key("alice")
    policy_keys = policy_keys or [alice]
    signing_key = signing_key or alice
    store = MemoryStore()
    add_keyring_branch(store, policy_keys)
    policy = authz_bytes(*policy_keys)
    sign = signer(signing_key)

    ids = []
    parent: list[ObjectId] = []
    tree = store.add_tree_from_files({".guix-authorizations": policy})
    for i in range(n):
        cid = store.add_commit(tree, parent, message=f"commit {i}\n", sign_with=sign)
        ids.append(cid)
        parent = [cid]
    store.set_ref("refs/heads/master", ids[-1])
    return SimpleNamespace(
        store=store, ids=ids,
        intro=ChannelIntroduction(ids[0], signing_key.fingerprint),
    )


def bad_tree_mode_chain() -> SimpleNamespace:
    """intro <- bad <- target, all signed by alice, where ``bad``'s tree
    carries an entry whose mode bytes are not ASCII. Checking ``target``
    reads that tree for its parent's authorizations."""
    alice = key("alice")
    store = MemoryStore()
    add_keyring_branch(store, [alice])
    policy = store.add_blob(authz_bytes(alice))
    good = TreeEntry("100644", ".guix-authorizations", policy)
    tree = store.add_tree([good])
    bad_tree = store.add_object(
        "tree", serialize_tree([good]) + b"1\xff0644 evil\x00" + policy.raw
    )
    sign = signer(alice)
    intro = store.add_commit(tree, message="intro\n", sign_with=sign)
    bad = store.add_commit(bad_tree, [intro], message="bad\n", sign_with=sign)
    target = store.add_commit(tree, [bad], message="target\n", sign_with=sign)
    store.set_ref("refs/heads/master", target)
    return SimpleNamespace(
        store=store, alice=alice, bad=bad, target=target,
        intro=ChannelIntroduction(intro, alice.fingerprint),
    )


def historical_repo(pre: int = 5, post: int = 5) -> SimpleNamespace:
    """History whose first ``pre`` commits predate any authorization
    file; the policy appears in commit ``pre + 1`` and stays."""
    alice, bob = key("alice"), key("bob")
    store = MemoryStore()
    add_keyring_branch(store, [alice, bob])
    both = authz_bytes(alice, bob)

    ids = []
    parent: list[ObjectId] = []
    for i in range(pre):
        cid = store.commit_files({"README": f"rev {i}\n".encode()}, parent,
                                 message=f"pre {i}\n", sign_with=signer(alice))
        ids.append(cid)
        parent = [cid]
    for i in range(post):
        cid = store.commit_files(
            {"README": f"rev {pre + i}\n".encode(), ".guix-authorizations": both},
            parent, message=f"post {i}\n", sign_with=signer(alice))
        ids.append(cid)
        parent = [cid]
    store.set_ref("refs/heads/master", ids[-1])
    return SimpleNamespace(
        store=store, ids=ids, alice=alice, bob=bob,
        intro=ChannelIntroduction(ids[0], alice.fingerprint),
        historical=authz_bytes(alice, bob),
    )


# -- randomized repositories with ground truth -------------------------


@dataclass
class RandomRepo:
    store: MemoryStore
    intro: ChannelIntroduction
    target: ObjectId
    violations: dict[ObjectId, str] = field(default_factory=dict)
    historical: AuthorizationList | None = None

    @property
    def expect_ok(self) -> bool:
        return not self.violations


def random_repository(rng: random.Random, max_commits: int = 40) -> RandomRepo:
    """A random DAG with random authorization evolution and, sometimes,
    injected violations, unrelated roots merged in, commits that delete
    the authorization file, and a historical authorization list. The
    anchor key stays authorized everywhere so valid merge commits always
    have an eligible signer."""
    from gitvouch.authz import parse_authorizations

    names = ["alice", "bob", "charlie", "dave", "eve"]
    pool = [key(n) for n in names[: rng.randint(2, 5)]]
    outsider = key("mallory")  # in the keyring, never authorized
    stranger = key("zed")  # never in the keyring

    store = MemoryStore()
    add_keyring_branch(store, pool + [outsider])
    anchor = pool[0]
    historical_keys = rng.sample(pool + [outsider], rng.randint(0, 2))
    historical = (parse_authorizations(authz_bytes(*historical_keys))
                  if rng.random() < 0.6 else None)

    n = rng.randint(2, max_commits)
    commits: list[ObjectId] = []
    policies: dict[ObjectId, list[SigningKey]] = {}
    removed: set[ObjectId] = set()  # commits that deleted the file
    violations: dict[ObjectId, str] = {}

    current_policy = [anchor] + [k for k in pool[1:] if rng.random() < 0.7]
    root = store.commit_files(
        {".guix-authorizations": authz_bytes(*current_policy)},
        message="root\n", sign_with=signer(anchor))
    commits.append(root)
    policies[root] = list(current_policy)

    for i in range(1, n):
        if len(commits) >= 2 and rng.random() < 0.15:
            parents = rng.sample(commits, 2)
        else:
            parents = [rng.choice(commits)]
        if rng.random() < 0.05:
            # An unrelated root merged in, which answers to the
            # historical list.
            if historical_keys and rng.random() < 0.8:
                k = rng.choice(historical_keys)
            else:
                k = rng.choice(pool + [outsider])
            policy = [anchor] + [p for p in pool[1:] if rng.random() < 0.5]
            other = store.commit_files({".guix-authorizations": authz_bytes(*policy)},
                                       message=f"r{i}\n", sign_with=signer(k))
            if historical is None or k not in historical_keys:
                violations[other] = "unauthorized-root"
            policies[other] = policy
            parents = parents[:1] + [other]

        # evolve the policy from the first parent; the anchor never leaves
        policy = list(policies[parents[0]])
        if rng.random() < 0.3:
            candidates = [k for k in pool[1:] if k not in policy]
            if candidates:
                policy.append(rng.choice(candidates))
        if len(policy) > 1 and rng.random() < 0.2:
            policy.remove(rng.choice(policy[1:]))

        allowed = set.intersection(
            *[{k.fingerprint for k in policies[p]} for p in parents]
        )
        eligible = [k for k in pool if k.fingerprint in allowed]

        files = {
            ".guix-authorizations": authz_bytes(*policy),
            "data.txt": f"revision {i}\n".encode(),
        }
        # A parent that deleted the file its own parents have is refused
        # as a parent, whoever signs, as in Guix.
        after_removal = not removed.isdisjoint(parents)
        deletes = not after_removal and rng.random() < 0.05
        if deletes:
            del files[".guix-authorizations"]
        roll = rng.random()
        if roll < 0.10:
            kind = rng.choice(["unsigned", "unauthorized", "unknown-key"])
            if kind == "unsigned":
                cid = store.commit_files(files, parents, message=f"c{i}\n")
            elif kind == "unauthorized":
                cid = store.commit_files(files, parents, message=f"c{i}\n",
                                         sign_with=signer(outsider))
            else:
                cid = store.commit_files(files, parents, message=f"c{i}\n",
                                         sign_with=signer(stranger))
            violations[cid] = kind
        else:
            cid = store.commit_files(files, parents, message=f"c{i}\n",
                                     sign_with=signer(rng.choice(eligible)))
        if after_removal:
            violations[cid] = "after-removal"
        if deletes:
            removed.add(cid)
        commits.append(cid)
        policies[cid] = policy

    target = commits[-1]
    store.set_ref("refs/heads/master", target)
    reachable = _closure(store, target)
    relevant = {c: k for c, k in violations.items() if c in reachable and c != commits[0]}
    return RandomRepo(
        store=store,
        intro=ChannelIntroduction(commits[0], anchor.fingerprint),
        target=target,
        violations=relevant,
        historical=historical,
    )


def _closure(store, start: ObjectId) -> set[ObjectId]:
    from gitvouch.gitstore.graph import read_commit

    seen = {start}
    stack = [start]
    while stack:
        for parent in read_commit(store, stack.pop()).parents:
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


def brute_force_authentic(store, intro: ChannelIntroduction, target: ObjectId,
                          keyring, historical=None) -> bool:
    """Independent checker: recompute closures naively and test the
    invariant commit by commit. No shared traversal, ordering, or cache
    code with the engine."""
    from gitvouch.authz import AUTHORIZATIONS_FILE, authorized_fingerprints, parse_authorizations
    from gitvouch.errors import VouchError
    from gitvouch.gitstore.graph import read_commit, read_path_at_commit
    from gitvouch.gitstore.objects import signed_payload
    from gitvouch.sigverify import parse_packets, dearmor
    from gitvouch.sigverify.armor import SIGNATURE
    from gitvouch.sigverify.packets import SignaturePacket
    from gitvouch.sigverify.verify import verify_detailed

    def closure(start):
        return _closure(store, start)

    reach_target = closure(target)
    if intro.commit not in reach_target:
        return False

    def verify_one(cid) -> tuple[Fingerprint, Fingerprint] | None:
        commit = read_commit(store, cid)
        if commit.signature is None:
            return None
        try:
            packets = parse_packets(dearmor(commit.signature, SIGNATURE))
            sig = next(p for p in packets if isinstance(p, SignaturePacket))
            v = verify_detailed(sig, signed_payload(commit), keyring)
            return v.primary_fingerprint, v.key_fingerprint
        except (VouchError, StopIteration):
            return None

    intro_sig = verify_one(intro.commit)
    if intro_sig is None or intro.signer not in intro_sig:
        return False

    def authorized_at(parent) -> frozenset | None:
        data = read_path_at_commit(store, parent, AUTHORIZATIONS_FILE)
        if data is None:
            # Guix refuses a parent that removed the file: one without it
            # whose own parent has it.
            removed = any(read_path_at_commit(store, p, AUTHORIZATIONS_FILE) is not None
                          for p in read_commit(store, parent).parents)
            if historical is not None and not removed:
                return authorized_fingerprints(historical)
            return None
        try:
            return authorized_fingerprints(parse_authorizations(data))
        except VouchError:
            return None

    for cid in reach_target - closure(intro.commit):
        signature = verify_one(cid)
        if signature is None:
            return False
        primary, subkey = signature
        parents = read_commit(store, cid).parents
        if not parents:
            # Guix checks a commit without parents against the default
            # authorizations: the historical list, or no one.
            if historical is None:
                return False
            allowed = authorized_fingerprints(historical)
            if primary not in allowed and subkey not in allowed:
                return False
        for parent in parents:
            allowed = authorized_at(parent)
            if allowed is None or (primary not in allowed and subkey not in allowed):
                return False
    return True


# -- repositories built with reference tooling (git + gpg) --------------


class GpgHome:
    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(path, mode=0o700, exist_ok=True)

    def run(self, *args, **kwargs):
        import subprocess

        env = dict(os.environ, GNUPGHOME=self.path)
        return subprocess.run(
            ["gpg", "--batch", "--pinentry-mode", "loopback", "--passphrase", "", *args],
            check=True, capture_output=True, env=env, **kwargs,
        )

    def gen_key(self, uid: str) -> str:
        self.run("--quick-gen-key", uid, "ed25519", "sign", "never")
        return self.fingerprint_of(uid)

    def add_signing_subkey(self, fpr: str) -> str:
        self.run("--quick-add-key", fpr, "ed25519", "sign", "never")
        out = self.run("--list-keys", "--with-colons", "--with-subkey-fingerprints", fpr)
        fprs = [l.split(":")[9] for l in out.stdout.decode().splitlines() if l.startswith("fpr:")]
        return fprs[-1]

    def fingerprint_of(self, uid: str) -> str:
        out = self.run("--list-keys", "--with-colons", uid)
        return next(
            l.split(":")[9] for l in out.stdout.decode().splitlines() if l.startswith("fpr:")
        )

    def export(self, uid: str) -> bytes:
        return self.run("--armor", "--export", uid).stdout


class GitRepo:
    def __init__(self, path: str, gpg_home: str) -> None:
        import subprocess

        self._subprocess = subprocess
        self.path = path
        self.env = dict(
            os.environ,
            GNUPGHOME=gpg_home,
            GIT_CONFIG_GLOBAL="/dev/null",
            GIT_CONFIG_SYSTEM="/dev/null",
            GIT_AUTHOR_DATE="2026-01-01T00:00:00+0000",
            GIT_COMMITTER_DATE="2026-01-01T00:00:00+0000",
        )
        os.makedirs(path)
        self.run("init", "-q", "-b", "master")
        self.run("config", "user.name", "Interop")
        self.run("config", "user.email", "interop@example.org")

    def run(self, *args, check=True):
        return self._subprocess.run(
            ["git", "-C", self.path, *args], check=check, capture_output=True, env=self.env
        )

    def write(self, name: str, data: bytes) -> None:
        full = os.path.join(self.path, name)
        if "/" in name:
            os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "wb") as fh:
            fh.write(data)

    def signed_commit(self, message: str, key: str) -> str:
        self.run("add", "-A")
        self.run("-c", f"user.signingkey={key}", "commit", "-q", "-S", "-m", message)
        return self.rev_parse("HEAD")

    def rev_parse(self, ref: str) -> str:
        return self.run("rev-parse", ref).stdout.decode().strip()


def build_interop_repo(base: str) -> dict:
    """10 commits, 2 signers (one signing via a subkey), one
    authorization change, and a keyring branch: all produced by stock
    git and gpg."""
    gpg = GpgHome(os.path.join(base, "gnupg"))
    alice_fpr = gpg.gen_key("Interop Alice <ialice@example.org>")
    bob_fpr = gpg.gen_key("Interop Bob <ibob@example.org>")
    bob_sub = gpg.add_signing_subkey(bob_fpr)

    repo = GitRepo(os.path.join(base, "repo"), gpg.path)

    def authz(*fprs):
        entries = "".join(f'("{f}")' for f in fprs)
        return f"(authorizations (version 0) ({entries}))\n".encode()

    commits = []
    repo.write(".guix-authorizations", authz(alice_fpr))
    repo.write("data.txt", b"revision 0\n")
    commits.append(repo.signed_commit("intro", alice_fpr))
    for i in range(1, 4):
        repo.write("data.txt", f"revision {i}\n".encode())
        commits.append(repo.signed_commit(f"alice {i}", alice_fpr))
    repo.write(".guix-authorizations", authz(alice_fpr, bob_fpr))
    commits.append(repo.signed_commit("add bob", alice_fpr))
    for i in range(5, 9):
        repo.write("data.txt", f"revision {i}\n".encode())
        commits.append(repo.signed_commit(f"bob {i}", f"{bob_sub}!"))
    repo.write("data.txt", b"revision 9\n")
    commits.append(repo.signed_commit("alice 9", alice_fpr))

    repo.run("checkout", "-q", "--orphan", "keyring")
    repo.run("rm", "-rfq", ".")
    repo.write("alice.key", gpg.export("ialice@example.org"))
    repo.write("bob.key", gpg.export("ibob@example.org"))
    repo.run("add", "-A")
    repo.run("commit", "-q", "-m", "keys")
    repo.run("checkout", "-q", "master")

    return {
        "repo": repo, "gpg": gpg, "commits": commits,
        "alice": alice_fpr, "bob": bob_fpr, "bob_sub": bob_sub,
    }


def synthetic_interop_twin():
    """Same shape as build_interop_repo, from the in-memory store."""
    alice, bob = key("alice"), key("bob")
    store = MemoryStore()
    add_keyring_branch(store, [alice, bob])
    commits = []
    parent: list[ObjectId] = []
    policy = authz_bytes(alice)
    for i in range(10):
        if i == 4:
            policy = authz_bytes(alice, bob)
        signing = alice if i < 5 or i == 9 else bob
        cid = store.commit_files(
            {".guix-authorizations": policy, "data.txt": f"revision {i}\n".encode()},
            parent, message=f"commit {i}\n", sign_with=signer(signing))
        commits.append(cid)
        parent = [cid]
    store.set_ref("refs/heads/master", commits[-1])
    return store, commits, alice


# -- exporting synthetic stores to disk ---------------------------------


def export_to_disk(store: MemoryStore, path: str) -> str:
    """Write a MemoryStore as a bare on-disk repository (loose objects
    only). Test infrastructure: the library itself never writes."""
    import zlib

    os.makedirs(os.path.join(path, "refs", "heads"), exist_ok=True)
    os.makedirs(os.path.join(path, "objects"), exist_ok=True)
    for oid, obj in store.objects():
        directory = os.path.join(path, "objects", oid.hex[:2])
        os.makedirs(directory, exist_ok=True)
        target = os.path.join(directory, oid.hex[2:])
        if not os.path.exists(target):
            header = b"%s %d\x00" % (obj.kind.encode(), len(obj.payload))
            with open(target, "wb") as fh:
                fh.write(zlib.compress(header + obj.payload))
    for name, value in store.refs().items():
        if name == "HEAD":
            continue
        ref_path = os.path.join(path, *name.split("/"))
        os.makedirs(os.path.dirname(ref_path), exist_ok=True)
        with open(ref_path, "w") as fh:
            if isinstance(value, ObjectId):
                fh.write(value.hex + "\n")
            else:
                fh.write(f"ref: {value}\n")
    head = store.refs().get("HEAD", "refs/heads/master")
    with open(os.path.join(path, "HEAD"), "w") as fh:
        if isinstance(head, ObjectId):
            fh.write(head.hex + "\n")
        else:
            fh.write(f"ref: {head}\n")
    return path
